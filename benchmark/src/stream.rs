//! `stream`: operate the service as measurements arrive. One writer
//! applies the campaign and corpus epoch batches back to back through
//! `PeeringService::apply_reported` (a closed loop). Incremental steps
//! and the delta publish dominate; corpus tracing happens before the
//! clock starts, so a route-table gain must leave this workload flat.

use crate::common::{
    base_of, corpus_destinations, dims, generate, peak_rss_mb, secs, Batches, Run, EPOCHS,
};
use crate::layers::{self, Extras, EPOCH};
use crate::stats::{fastest_per_item, percentile};
use crate::trace::Tracer;
use opeer_core::input::default_configs;
use opeer_core::pipeline::{run_pipeline, PipelineResult};
use opeer_core::service::PeeringService;
use opeer_core::InferenceInput;
use opeer_measure::campaign::campaign_batches;
use opeer_measure::traceroute::corpus_batches;
use opeer_topology::World;
use std::time::Instant;

/// The stream's set-up after world generation: the measurement-free
/// base service, the epoch batches, and a spare copy of the base input
/// for later passes.
pub fn prepare<'w>(
    world: &'w World,
    run: &Run,
) -> (PeeringService<'w>, Batches, InferenceInput<'w>) {
    let base = InferenceInput::assemble_base(world, run.seed);
    let spare = base_of(&base);
    let service = PeeringService::build(base, &run.cfg, &run.par);
    let (_, campaign_cfg, corpus_cfg) = default_configs(run.seed);
    let batches = Batches {
        campaign: campaign_batches(world, &spare.vps, campaign_cfg, EPOCHS),
        corpus: corpus_batches(world, corpus_cfg, EPOCHS),
    };
    (service, batches, spare)
}

/// The one-shot input the stream must end at, assembled outside the
/// clock.
pub fn reference_input<'w>(world: &'w World, run: &Run) -> InferenceInput<'w> {
    InferenceInput::assemble_parallel(world, run.seed, &run.par)
}

/// The one-shot result the stream must end at. Notes the world's
/// dimensions and drops the one-shot input before it returns.
pub fn reference(world: &World, run: &mut Run, epochs: usize) -> PipelineResult {
    let input = reference_input(world, run);
    let dsts = corpus_destinations(world, run.seed);
    run.note("world", dims(world, dsts, &input, epochs));
    run_pipeline(&input, &run.cfg)
}

/// Streams every delta through fresh services for the run's seconds;
/// returns each apply's latency in ms, per delta, and the result the
/// passes end at.
fn passes<'w>(
    run: &mut Run,
    first: PeeringService<'w>,
    base: &InferenceInput<'w>,
    batches: &Batches,
) -> (Vec<Vec<f64>>, PipelineResult) {
    let t0 = Instant::now();
    let mut latency_ms = vec![Vec::new(); batches.len()];
    let mut end: Option<PipelineResult> = None;
    let mut next = Some(first);
    loop {
        let service = next
            .take()
            .unwrap_or_else(|| PeeringService::build(base_of(base), &run.cfg, &run.par));
        let mut epoch = service.epoch();
        for (i, delta) in batches.deltas().into_iter().enumerate() {
            let t = Instant::now();
            let report = service.apply_reported(delta);
            latency_ms[i].push(secs(t) * 1e3);
            run.check(
                "stream: every apply publishes the next epoch",
                report.epoch == epoch + 1,
            );
            epoch = report.epoch;
        }
        let result = service.snapshot().result().clone();
        match &end {
            Some(first) => run.check(
                "stream: every pass ends at the same result",
                &result == first,
            ),
            None => end = Some(result),
        }
        if secs(t0) >= run.seconds {
            return (latency_ms, end.expect("one pass ran"));
        }
    }
}

pub fn run(run: &mut Run, tracer: &Tracer) {
    let mut setup_s = Vec::new();
    for rep in 1..run.setup_reps() {
        let t = Instant::now();
        let world = generate(run.seed, tracer, rep as u64);
        let prepared = prepare(&world, run);
        setup_s.push(secs(t));
        drop(prepared);
    }
    let t = Instant::now();
    let world = generate(run.seed, tracer, 0);
    let (service, batches, base) = prepare(&world, run);
    setup_s.push(secs(t));

    let (per_delta, end) = passes(run, service, &base, &batches);
    // The peak is read, and the reference computed, after the timed
    // passes, so that the one-shot input is never alive beside the
    // stream's service and `peak_rss_mb` is the stream's own.
    let peak_mb = peak_rss_mb();
    let reference = reference(&world, run, batches.len());
    run.check(
        "stream: the final snapshot equals run_pipeline over the one-shot input",
        end == reference,
    );
    let epoch_ms: Vec<f64> = per_delta.concat();
    run.quantile_note("epoch_p50_ms", &epoch_ms, 50.0);
    run.quantile_note("epoch_p90_ms", &epoch_ms, 90.0);
    if !run.traced {
        // Every delta is applied once per pass: its fastest apply.
        let fastest = fastest_per_item(&per_delta);
        let per_s = fastest.len() as f64 / (fastest.iter().sum::<f64>() / 1e3);
        run.end_to_end(&setup_s, peak_mb, &fastest, per_s, &fastest);
        return;
    }

    let mut extras = Extras::default();
    let t0 = Instant::now();
    let mut pass = 0;
    while pass == 0 || secs(t0) < run.seconds {
        let base = base_of(&base);
        layers::incremental_pass(run, base, &batches, &reference, tracer, pass, &mut extras);
        pass += 1;
    }
    extras.overhead_ms =
        percentile(&tracer.durations_ms(EPOCH), 50.0).value - percentile(&epoch_ms, 50.0).value;
    let reference_input = reference_input(&world, run);
    let (batches, base) = layers::walk(
        run,
        &world,
        tracer,
        &reference_input,
        &reference,
        &mut extras,
    );
    layers::archive_phase(run, base, &batches, &reference, tracer, &mut extras);
    layers::report(run, tracer, &extras);
}
