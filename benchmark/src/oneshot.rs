//! `oneshot`: reproduce the study once — from a generated world to the
//! first published snapshot, through `InferenceInput::assemble_parallel`
//! and `PeeringService::build`. This is the paper's batch path; corpus
//! route tables dominate it, and incremental apply, the archive and the
//! gateway are bypassed.

use crate::common::{base_of, corpus_destinations, dims, generate, peak_rss_mb, secs, Run};
use crate::layers::{self, Extras};
use crate::stats::{fastest_per_item, percentile};
use crate::trace::Tracer;
use opeer_core::pipeline::{run_pipeline, PipelineResult};
use opeer_core::service::PeeringService;
use opeer_core::InferenceInput;
use opeer_topology::World;
use std::time::Instant;

/// Reproductions per run, however long each takes.
const MIN_REPS: usize = 3;

struct Timed<'w> {
    wall_s: Vec<f64>,
    build_s: Vec<f64>,
    service: PeeringService<'w>,
    result: PipelineResult,
}

/// Reproduces the study back to back for the run's seconds.
fn timed<'w>(run: &mut Run, world: &'w World, tracer: &Tracer) -> Timed<'w> {
    let t0 = Instant::now();
    let mut wall_s = Vec::new();
    let mut build_s = Vec::new();
    let mut last: Option<(PeeringService<'w>, PipelineResult)> = None;
    while wall_s.len() < MIN_REPS || secs(t0) < run.seconds {
        let rep = wall_s.len() as u64;
        // One reproduction alive at a time, as a user would run it.
        let previous = last.take().map(|(service, result)| {
            drop(service);
            result
        });
        let root = tracer.open("oneshot", None, rep);
        let p = Some(root.id());
        let start = Instant::now();
        let input = tracer.time("oneshot.assemble_parallel", p, rep, || {
            InferenceInput::assemble_parallel(world, run.seed, &run.par)
        });
        let built = Instant::now();
        let service = tracer.time("oneshot.service_build", p, rep, || {
            PeeringService::build(input, &run.cfg, &run.par)
        });
        let snapshot = service.snapshot();
        let done = Instant::now();
        root.close();
        wall_s.push((done - start).as_secs_f64());
        build_s.push((done - built).as_secs_f64());
        let same = previous.as_ref().is_none_or(|r| r == snapshot.result());
        run.check(
            "oneshot: every reproduction publishes epoch 0 with the same result",
            snapshot.epoch() == 0 && same,
        );
        let result = snapshot.result().clone();
        drop(snapshot);
        last = Some((service, result));
    }
    let (service, result) = last.expect("at least one reproduction");
    Timed {
        wall_s,
        build_s,
        service,
        result,
    }
}

pub fn run(run: &mut Run, tracer: &Tracer) {
    let mut setup_s = Vec::new();
    for rep in 1..run.setup_reps() {
        let t = Instant::now();
        let world = generate(run.seed, tracer, rep as u64);
        setup_s.push(secs(t));
        drop(world);
    }
    let t = Instant::now();
    let world = generate(run.seed, tracer, 0);
    setup_s.push(secs(t));

    let measured = timed(run, &world, &Tracer::new(false));
    {
        let input = measured.service.input();
        run.check(
            "run_pipeline over the assembled input equals the published snapshot",
            run_pipeline(&input, &run.cfg) == measured.result,
        );
        let dsts = corpus_destinations(&world, run.seed);
        run.note("world", dims(&world, dsts, &input, 0));
    }
    let oneshot_ms: Vec<f64> = measured.wall_s.iter().map(|s| s * 1e3).collect();
    run.quantile_note("oneshot_s", &measured.wall_s, 50.0);
    if !run.traced {
        // One work item, reproduced again and again: its fastest run.
        let build_ms: Vec<f64> = measured.build_s.iter().map(|s| s * 1e3).collect();
        let fastest = fastest_per_item(&[oneshot_ms]);
        run.end_to_end(
            &setup_s,
            peak_rss_mb(),
            &fastest,
            1e3 / fastest[0],
            &fastest_per_item(&[build_ms]),
        );
        return;
    }

    let traced = timed(run, &world, tracer);
    let traced_ms: Vec<f64> = traced.wall_s.iter().map(|s| s * 1e3).collect();
    let mut extras = Extras {
        overhead_ms: percentile(&traced_ms, 50.0).value - percentile(&oneshot_ms, 50.0).value,
        ..Extras::default()
    };
    drop(traced);
    let reference_input = measured.service.input();
    let reference = &measured.result;
    let (batches, base) = layers::walk(
        run,
        &world,
        tracer,
        &reference_input,
        reference,
        &mut extras,
    );
    layers::incremental_pass(
        run,
        base_of(&base),
        &batches,
        reference,
        tracer,
        0,
        &mut extras,
    );
    layers::archive_phase(run, base, &batches, reference, tracer, &mut extras);
    layers::report(run, tracer, &extras);
}
