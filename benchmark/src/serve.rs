//! `serve`: reads beside writes. A warm service (the base plus the
//! first half of the stream) with an archive attached is served over
//! loopback by the gateway; one closed-loop keep-alive client sends the
//! seeded request mix while one writer applies the rest of the stream
//! on a fixed schedule (open loop, timed from each delta's due time).
//! This covers the wire edge, the route handlers and snapshot reads
//! while publishes run; assembly is bypassed.

use crate::common::{base_of, generate, peak_rss_mb, secs, Batches, Rng, Run, Targets, EPOCHS};
use crate::layers::{self, Extras, TARGETS};
use crate::stats::{fastest_per_item, percentile};
use crate::stream;
use crate::trace::Tracer;
use crate::wire::{self, Budget, InProcess, Tally};
use opeer_core::archive::SnapshotArchive;
use opeer_core::incremental::InputDelta;
use opeer_core::pipeline::PipelineResult;
use opeer_core::service::PeeringService;
use opeer_core::InferenceInput;
use std::time::{Duration, Instant};

/// Deltas the writer applies per second. A fixed rate, chosen rather
/// than measured, so that the write load does not depend on the run's
/// length: the 60 deltas of a session take 3 s.
pub const WRITE_RATE: f64 = 20.0;
/// Served sessions per run, at least.
const MIN_SESSIONS: usize = 3;

/// What one served session measured.
struct Session {
    tally: Tally,
    /// Writer latency from each delta's due time to its publish, ms.
    write_ms: Vec<f64>,
    /// How late the writer started each delta, ms.
    late_ms: Vec<f64>,
    wall_s: f64,
}

/// Attaches an archive retaining every epoch and applies the first half
/// of the stream through it; returns the archive and the other half.
fn warm<'s, 'w>(
    service: &'s PeeringService<'w>,
    batches: &Batches,
) -> (SnapshotArchive<'s, 'w>, Vec<InputDelta>) {
    let archive = SnapshotArchive::attach_with_retention(service, None);
    let mut deltas = batches.deltas();
    let rest = deltas.split_off(deltas.len() / 2);
    for delta in deltas {
        archive.apply(delta);
    }
    (archive, rest)
}

/// Applies `deltas` from `t0` at [`WRITE_RATE`], each at its due time.
fn writer(
    archive: &SnapshotArchive<'_, '_>,
    deltas: Vec<InputDelta>,
    t0: Instant,
) -> (Vec<f64>, Vec<f64>, bool) {
    let mut write_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut monotonic = true;
    let mut epoch = archive.latest_epoch().unwrap_or(0);
    for (k, delta) in deltas.into_iter().enumerate() {
        let due = t0 + Duration::from_secs_f64((k as f64 + 0.5) / WRITE_RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let start = Instant::now();
        let published = archive.apply(delta);
        let done = Instant::now();
        write_ms.push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
        late_ms.push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
        monotonic &= published == epoch + 1;
        epoch = published;
    }
    (write_ms, late_ms, monotonic)
}

/// Serves a warm archived service under the client and the writer for
/// as long as the writer's schedule lasts, and checks the outcome. With
/// `extras`, every request is also dispatched in process.
fn session<'w>(
    run: &mut Run,
    service: &PeeringService<'w>,
    archive: &SnapshotArchive<'_, 'w>,
    rest: Vec<InputDelta>,
    tracer: &Tracer,
    reference: &PipelineResult,
    extras: Option<&mut Extras>,
) -> Session {
    let targets = Targets::sample(&service.input(), &service.snapshot(), run.seed, TARGETS);
    let in_process = InProcess {
        service,
        archive,
        tracer,
    };
    let traced = extras.is_some();
    let seed = run.seed;
    let seconds = rest.len() as f64 / WRITE_RATE;
    let served = wire::with_gateway(service, archive, |addr| {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        std::thread::scope(|s| {
            let writer = s.spawn(|| writer(archive, rest, t0));
            let client = s.spawn(|| {
                let mut rng = Rng::new(seed, 0x5E12E);
                let in_process = traced.then_some(&in_process);
                wire::client(
                    addr,
                    Budget::Until(deadline),
                    &mut rng,
                    &targets,
                    in_process,
                )
            });
            let tally = client.join().expect("client thread panicked");
            let wall_s = secs(t0);
            let written = writer.join().expect("writer thread panicked");
            (tally, written, wall_s)
        })
    });
    let (tally, (write_ms, late_ms, monotonic), wall_s) = match served {
        Ok(out) => out,
        Err(e) => {
            run.check(&format!("bind the gateway: {e}"), false);
            (Tally::default(), (Vec::new(), Vec::new(), false), 0.0)
        }
    };
    run.absorb(&tally);
    for _ in 0..write_ms.len() {
        run.check(
            "serve: the writer publishes the next epoch each time",
            monotonic,
        );
    }
    run.check(
        "serve: every delta was published",
        archive.latest_epoch() == Some(EPOCHS as u64),
    );
    run.check(
        "serve: the final snapshot equals run_pipeline over the one-shot input",
        service.snapshot().result() == reference,
    );
    if let Some(extras) = extras {
        extras.absorb_wire(&tally);
    }
    Session {
        tally,
        write_ms,
        late_ms,
        wall_s,
    }
}

/// Warms a fresh service from the base input (outside every clock) and
/// serves it for one session. With `reads`, the walk's snapshot and
/// archive reads then run on the served state; route dispatch was
/// already timed on the client's own requests, under the writer.
fn fresh_session(
    run: &mut Run,
    base: &InferenceInput<'_>,
    batches: &Batches,
    tracer: &Tracer,
    reference: &PipelineResult,
    mut extras: Option<&mut Extras>,
    reads: bool,
) -> Session {
    let service = PeeringService::build(base_of(base), &run.cfg, &run.par);
    let (archive, rest) = warm(&service, batches);
    let served = session(
        run,
        &service,
        &archive,
        rest,
        tracer,
        reference,
        extras.as_deref_mut(),
    );
    if let Some(extras) = extras.filter(|_| reads) {
        let targets = Targets::sample(&service.input(), &service.snapshot(), run.seed, TARGETS);
        layers::reads(run, &service, &archive, &targets, tracer, extras, false);
    }
    served
}

pub fn run(run: &mut Run, tracer: &Tracer) {
    let off = Tracer::new(false);
    let mut setup_s = Vec::new();
    for rep in 1..run.setup_reps() {
        let t = Instant::now();
        let world = generate(run.seed, tracer, rep as u64);
        let (service, batches, _) = stream::prepare(&world, run);
        let warmed = warm(&service, &batches);
        setup_s.push(secs(t));
        drop(warmed);
    }
    let t = Instant::now();
    let world = generate(run.seed, tracer, 0);
    let generate_s = secs(t);
    // Outside the clock, before any service exists; the one-shot input
    // is dropped once its result is known.
    let reference = stream::reference(&world, run, EPOCHS);
    let t = Instant::now();
    let (service, batches, base) = stream::prepare(&world, run);
    let (archive, rest) = warm(&service, &batches);
    setup_s.push(generate_s + secs(t));

    // The set-up's service serves the first session; later sessions
    // each warm a fresh one, so every session writes the same deltas.
    let t0 = Instant::now();
    let mut sessions = vec![session(
        run, &service, &archive, rest, &off, &reference, None,
    )];
    drop(archive);
    drop(service);
    // The peak of one service's whole life: set-up and one session. Each
    // later session runs on fresh threads, and the allocator's per-thread
    // arenas would add their scattered free memory to the process peak
    // (it stays flat with a single arena), which is not the program's.
    let peak_mb = peak_rss_mb();
    while sessions.len() < MIN_SESSIONS || secs(t0) < run.seconds {
        let next = fresh_session(run, &base, &batches, &off, &reference, None, false);
        sessions.push(next);
    }
    let latency_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.tally.latency_ms.iter().copied())
        .collect();
    let late_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    // Per delta, its write in every session.
    let deltas = sessions.iter().map(|s| s.write_ms.len()).max().unwrap_or(0);
    let write_ms: Vec<Vec<f64>> = (0..deltas)
        .map(|i| {
            sessions
                .iter()
                .filter_map(|s| s.write_ms.get(i).copied())
                .collect()
        })
        .collect();
    let wall_s: f64 = sessions.iter().map(|s| s.wall_s).sum();
    run.note("sessions", serde::Value::U64(sessions.len() as u64));
    run.quantile_note("req_p50_ms", &latency_ms, 50.0);
    run.quantile_note("req_p90_ms", &latency_ms, 90.0);
    run.quantile_note("writer_late_ms", &late_ms, 50.0);
    let per_s = latency_ms.len() as f64 / wall_s.max(f64::EPSILON);
    run.note("req_per_s", serde::Value::F64(per_s));
    if !run.traced {
        // Each delta is written once per session: its fastest write.
        let writes = fastest_per_item(&write_ms);
        run.end_to_end(&setup_s, peak_mb, &latency_ms, per_s, &writes);
        return;
    }

    // Traced sessions for the other half of the run; the first one also
    // times the snapshot and archive reads on its served state.
    let mut extras = Extras::default();
    let mut traced_ms = Vec::new();
    let t0 = Instant::now();
    let mut n = 0;
    while n < MIN_SESSIONS || secs(t0) < run.seconds {
        let traced = fresh_session(
            run,
            &base,
            &batches,
            tracer,
            &reference,
            Some(&mut extras),
            n == 0,
        );
        traced_ms.extend_from_slice(&traced.tally.latency_ms);
        n += 1;
    }
    extras.overhead_ms = percentile(&traced_ms, 50.0).value - percentile(&latency_ms, 50.0).value;
    drop(base);
    let reference_input = stream::reference_input(&world, run);
    let (batches, base) = layers::walk(
        run,
        &world,
        tracer,
        &reference_input,
        &reference,
        &mut extras,
    );
    layers::incremental_pass(run, base, &batches, &reference, tracer, 0, &mut extras);
    layers::report(run, tracer, &extras);
}
