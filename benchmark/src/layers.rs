//! The traced layer walk: every public layer call of the program, timed
//! one span at a time from the benchmark, and the per-layer metrics
//! derived from those spans.
//!
//! Each traced run walks the whole stack on its own world — a one-shot
//! reproduction assembled layer by layer, steps 1–5, one incremental
//! pass, reads on an archived service, and the coverage check against
//! the real sequential path on a small world — so every per-layer metric
//! is measured on every workload. The workload's own traced loop adds
//! what only it exercises (the stream's epochs, the serve reads under a
//! writer).

use crate::common::{base_of, obj, secs, Batches, Rng, Run, Targets};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::wire::{self, Kind};
use opeer_bgp::Collector;
use opeer_core::archive::SnapshotArchive;
use opeer_core::engine::ParallelConfig;
use opeer_core::incremental::IncrementalPipeline;
use opeer_core::input::default_configs;
use opeer_core::intern::InternTables;
use opeer_core::pipeline::{run_pipeline, PipelineConfig, PipelineResult};
use opeer_core::service::{PeeringService, QueryRequest, Snapshot};
use opeer_core::steps::{step1, step2, step3, step4, step5, Ledger};
use opeer_core::{Inference, InferenceInput};
use opeer_gateway::metrics::MetricsRegistry;
use opeer_gateway::routes::dispatch;
use opeer_measure::campaign::run_campaign;
use opeer_measure::latency::LatencyModel;
use opeer_measure::traceroute::{plan_corpus, CorpusPlan, TracerouteEngine};
use opeer_measure::vp::discover_vps;
use opeer_registry::build_observed_world;
use opeer_topology::{AsId, AsKind, World, WorldConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Root span of the layered one-shot reproduction. Its children, summed,
/// must reach [`MIN_COVERAGE`] of the real sequential path's wall time.
pub const LAYERED: &str = "oneshot.layered";
/// Share of the real sequential path the layer spans must account for.
pub const MIN_COVERAGE: f64 = 0.95;
/// Root span of one incremental epoch (apply + delta publish).
pub const EPOCH: &str = "stream.epoch";
/// Alternations of the real sequential path and the layered one on the
/// coverage world.
const COVERAGE_PAIRS: u64 = 100;
/// Single-destination samples: enough for a resolved p99.
const DST_SAMPLES: usize = 1000;
/// `routes_to` samples (p50 only).
const ROUTE_SAMPLES: usize = 200;
/// In-process reads per query family and gateway route.
const READS: usize = 1000;
/// Archive aggregations per kind (they scan every retained epoch).
const ARCHIVE_READS: usize = 200;
/// Requests of the short wire phase of workloads that serve nothing.
const WIRE_REQUESTS: usize = 64;
/// Registry keys sampled for lookups.
pub const TARGETS: usize = 512;

/// Numbers the walk measures besides span durations.
#[derive(Default)]
pub struct Extras {
    pub corpus_dsts: usize,
    pub corpus_traces: usize,
    pub dirty_frac: Vec<f64>,
    pub shared_frac: Vec<f64>,
    pub archive_retained_mb: f64,
    pub wire_ms: Vec<f64>,
    pub status_200: u64,
    pub status_404: u64,
    pub overhead_ms: f64,
    /// Share of the real sequential path the layer spans account for.
    pub coverage: f64,
}

impl Extras {
    /// Takes a traced wire client's wire times and status counts.
    pub fn absorb_wire(&mut self, tally: &wire::Tally) {
        self.wire_ms.extend_from_slice(&tally.wire_ms);
        self.status_200 += tally.status.get(&200).copied().unwrap_or(0);
        self.status_404 += tally.status.get(&404).copied().unwrap_or(0);
    }
}

/// The route collector `prefix2as` is built from: the best-connected
/// transit AS (the same choice the assembly makes).
fn collector_peer(world: &World) -> AsId {
    let peer = world
        .ases
        .iter()
        .position(|a| matches!(a.kind, AsKind::TransitGlobal))
        .unwrap_or(0);
    AsId::from_index(peer)
}

/// A one-shot reproduction assembled layer by layer, sequentially, in
/// the order of `InferenceInput::assemble`, then built into a service.
pub struct Layered<'w> {
    pub service: PeeringService<'w>,
    pub plan: CorpusPlan,
    pub engine: TracerouteEngine<'w>,
}

fn layered_oneshot<'w>(
    world: &'w World,
    seed: u64,
    cfg: &PipelineConfig,
    par: &ParallelConfig,
    tracer: &Tracer,
) -> Layered<'w> {
    let (registry_cfg, campaign_cfg, corpus_cfg) = default_configs(seed);
    let root = tracer.open(LAYERED, None, 0);
    let p = Some(root.id());
    let (observed, table1) = tracer.time("registry.fusion", p, 0, || {
        build_observed_world(world, &registry_cfg)
    });
    let vps = tracer.time("measure.vps", p, 0, || discover_vps(world, seed));
    let campaign = tracer.time("measure.campaign", p, 0, || {
        run_campaign(world, &vps, campaign_cfg)
    });
    let plan = tracer.time("measure.corpus_plan", p, 0, || {
        plan_corpus(world, &corpus_cfg)
    });
    let engine = tracer.time("measure.trace_engine", p, 0, || {
        TracerouteEngine::new(world, LatencyModel::new(corpus_cfg.seed))
    });
    let corpus = tracer.time("measure.corpus", p, 0, || {
        plan.trace_shard_on(&engine, 0..plan.len())
    });
    let ip2as = tracer.time("bgp.prefix2as", p, 0, || {
        Collector::build(world, collector_peer(world)).prefix2as()
    });
    let interns = tracer.time("core.intern", p, 0, || {
        InternTables::from_observed(&observed)
    });
    let input = InferenceInput {
        world,
        observed,
        table1,
        vps,
        campaign,
        corpus,
        ip2as,
        interns,
    };
    let pipe = tracer.time("core.incremental_build", p, 0, || {
        IncrementalPipeline::new(input, cfg, par)
    });
    let service = tracer.time("core.publish_full", p, 0, || PeeringService::new(pipe));
    root.close();
    Layered {
        service,
        plan,
        engine,
    }
}

/// `trace.coverage`: the share of the real sequential path that the
/// layer spans account for. The real path, `InferenceInput::assemble`
/// then `PeeringService::build` up to the first published snapshot, is
/// timed untraced; work inside it that no layer span covers lowers the
/// share. Measured on the `small` preset world of the run's seed, where
/// either path takes about 0.1 s, alternating the two paths
/// [`COVERAGE_PAIRS`] times, so that both see the same states of the
/// host. On a shared 2-vCPU host, single runs of either path, on either
/// world, differed by up to 15 % from the next run: more than the gate's
/// margin, so one pair of runs cannot decide it. Returns the layer spans
/// summed over every alternation, over the sequential wall times summed.
fn coverage(run: &mut Run) -> f64 {
    let world = WorldConfig::small(run.seed).generate();
    let probe = Tracer::new(true);
    let mut sequential_ms = Vec::new();
    let mut published: Option<PipelineResult> = None;
    let mut same = true;
    for _ in 0..COVERAGE_PAIRS {
        let t = Instant::now();
        let input = InferenceInput::assemble(&world, run.seed);
        let service = PeeringService::build(input, &run.cfg, &run.par);
        sequential_ms.push(secs(t) * 1e3);
        let result = service.snapshot().result().clone();
        drop(service);
        let layered = layered_oneshot(&world, run.seed, &run.cfg, &run.par, &probe);
        same &= layered.service.snapshot().result() == &result;
        same &= published.get_or_insert(result) == layered.service.snapshot().result();
    }
    run.check(
        "coverage world: the sequential and the layered path publish one result",
        same,
    );
    let layers_ms: f64 = probe.children_ms(LAYERED).iter().sum();
    let sequential_ms: f64 = sequential_ms.iter().sum();
    run.note(
        "coverage",
        obj(vec![
            ("world_ases", serde::Value::U64(world.ases.len() as u64)),
            ("pairs", serde::Value::U64(COVERAGE_PAIRS)),
            ("layer_spans_ms", serde::Value::F64(layers_ms)),
            ("sequential_ms", serde::Value::F64(sequential_ms)),
        ]),
    );
    layers_ms / sequential_ms
}

/// Steps 1–5 one call at a time in `run_pipeline`'s order, then
/// `run_pipeline` itself. Returns the stepwise ledger's inferences and
/// the pipeline's result.
fn steps(
    input: &InferenceInput<'_>,
    cfg: &PipelineConfig,
    tracer: &Tracer,
) -> (Vec<Inference>, PipelineResult) {
    let mut ledger = Ledger::new();
    tracer.time("core.step1", None, 0, || step1::apply(input, &mut ledger));
    let observations = tracer.time("core.step2", None, 0, || step2::consolidate(input));
    let details = tracer.time("core.step3", None, 0, || {
        step3::apply_with_rounding(
            input,
            &observations,
            &cfg.speed,
            &mut ledger,
            cfg.honor_lg_rounding,
        )
    });
    tracer.time("core.step4", None, 0, || {
        let index = step4::Step3Index::build(&input.interns, details.iter().copied());
        step4::apply(input, &index, &cfg.alias, &mut ledger)
    });
    tracer.time("core.step5", None, 0, || {
        step5::apply(input, &cfg.alias, &mut ledger)
    });
    let result = tracer.time("core.pipeline", None, 0, || run_pipeline(input, cfg));
    (ledger.all().collect(), result)
}

/// Route tables towards a seeded sample of the corpus's destination
/// ASes, and single-destination traces over a seeded sample of the plan.
fn samples(world: &World, layered: &Layered<'_>, seed: u64, tracer: &Tracer) {
    let mut rng = Rng::new(seed, 0xD5);
    let oracle = layered.engine.oracle();
    let corpus = &layered.service.input().corpus;
    let dsts: Vec<AsId> = (0..ROUTE_SAMPLES)
        .filter_map(|_| world.origin_of_addr(corpus[rng.below(corpus.len())].dst))
        .collect();
    for (k, &dst) in dsts.iter().enumerate() {
        tracer.time("topology.routes_to", None, k as u64, || {
            black_box(oracle.routes_to(dst))
        });
    }
    for k in 0..DST_SAMPLES {
        let i = rng.below(layered.plan.len());
        tracer.time("measure.corpus_dst", None, k as u64, || {
            black_box(layered.plan.trace_shard_on(&layered.engine, i..i + 1))
        });
    }
}

/// One pass of the stream through the two calls `apply_reported` makes,
/// each in its own span; checks that it ends at the one-shot result.
pub fn incremental_pass(
    run: &mut Run,
    base: InferenceInput<'_>,
    batches: &Batches,
    reference: &PipelineResult,
    tracer: &Tracer,
    pass: u64,
    extras: &mut Extras,
) {
    let par = &run.par;
    let mut pipe = IncrementalPipeline::new(base, &run.cfg, par);
    let mut prev = Arc::new(Snapshot::build_full(
        0,
        pipe.input(),
        pipe.result().clone(),
        par,
    ));
    for delta in batches.deltas() {
        let root = tracer.open(EPOCH, None, pass);
        let p = Some(root.id());
        tracer.time("core.apply", p, pass, || {
            pipe.apply(delta);
        });
        let epoch = pipe.epochs_applied() as u64;
        let next = tracer.time("core.publish_delta", p, pass, || {
            Snapshot::build_delta(
                epoch,
                pipe.input(),
                pipe.result(),
                &prev,
                pipe.last_publish(),
                pipe.parallel(),
            )
        });
        root.close();
        let total = pipe.totals().total().max(1);
        extras
            .dirty_frac
            .push(pipe.last_dirty().total() as f64 / total as f64);
        let next = Arc::new(next);
        let (shared, owned) = next.partition_counts();
        extras
            .shared_frac
            .push(shared as f64 / (shared + owned).max(1) as f64);
        prev = next;
    }
    run.check(
        "the incremental pass ends at the one-shot result",
        pipe.result() == reference,
    );
}

/// In-process reads on the latest snapshot and the archive: each query
/// family, each archive call and, with `routes`, each gateway route's
/// dispatch.
pub fn reads(
    run: &mut Run,
    service: &PeeringService<'_>,
    archive: &SnapshotArchive<'_, '_>,
    targets: &Targets,
    tracer: &Tracer,
    extras: &mut Extras,
    routes: bool,
) {
    let snap = service.snapshot();
    let mut rng = Rng::new(run.seed, 0x8EAD);
    let latest = archive.latest_epoch().unwrap_or(0);
    let pick = |rng: &mut Rng| targets.ifaces[rng.below(targets.ifaces.len())];
    let asn = |rng: &mut Rng| targets.asns[rng.below(targets.asns.len())];
    let mut ok = true;
    for k in 0..READS as u64 {
        let (ixp, iface) = pick(&mut rng);
        let r = tracer.time("core.query.verdict", None, k, || {
            black_box(snap.verdict(ixp, iface))
        });
        ok &= r.is_ok();
        let a = asn(&mut rng);
        let r = tracer.time("core.query.asn", None, k, || black_box(snap.asn_report(a)));
        ok &= r.is_ok();
        let x = rng.below(targets.ixps);
        let r = tracer.time("core.query.ixp", None, k, || black_box(snap.ixp_report(x)));
        ok &= r.is_ok();
        let (_, e) = pick(&mut rng);
        let r = tracer.time("core.query.explain", None, k, || black_box(snap.explain(e)));
        ok &= r.is_ok();
        let batch: Vec<QueryRequest> = (0..16)
            .map(|_| {
                let (ixp, iface) = pick(&mut rng);
                QueryRequest::Verdict { ixp, iface }
            })
            .collect();
        let r = tracer.time("core.query.batch", None, k, || {
            black_box(snap.query(&batch))
        });
        ok &= r.is_ok_and(|answers| answers.len() == batch.len());
    }
    for k in 0..ARCHIVE_READS as u64 {
        let epoch = rng.next_u64() % (latest + 1);
        let r = tracer.time("core.archive.at", None, k, || black_box(archive.at(epoch)));
        ok &= r.is_ok_and(|snapshot| snapshot.epoch() == epoch);
        let x = rng.below(targets.ixps);
        let r = tracer.time("core.archive.trend", None, k, || {
            black_box(archive.trend(x))
        });
        ok &= r.is_ok();
        let a = asn(&mut rng);
        let r = tracer.time("core.archive.churn", None, k, || {
            black_box(archive.churn(a))
        });
        ok &= r.is_ok();
    }
    run.check("in-process reads answer every sampled key", ok);
    extras.archive_retained_mb = archive.retained_bytes() as f64 / 1e6;
    if !routes {
        return;
    }
    let scratch = MetricsRegistry::default();
    let mut ok = true;
    for (kind, n) in [
        (Kind::Verdict, READS),
        (Kind::Asn, READS),
        (Kind::Ixp, READS),
        (Kind::Explain, READS),
        (Kind::Query, READS),
        (Kind::Trend, ARCHIVE_READS),
        (Kind::Churn, ARCHIVE_READS),
    ] {
        for k in 0..n as u64 {
            let req = wire::request(kind, &mut rng, targets, latest);
            let parsed = req.parsed();
            let outcome = tracer.time(req.span, None, k, || {
                black_box(dispatch(
                    &parsed,
                    &snap,
                    Duration::ZERO,
                    Some(archive),
                    &scratch,
                ))
            });
            ok &= outcome.status == req.expect;
        }
    }
    run.check(
        "in-process dispatch answers every request with its expected status",
        ok,
    );
}

/// Reads for a workload that serves nothing itself: a service fed the
/// whole stream with an archive attached, in-process reads on it, and a
/// short wire phase with every request also dispatched in process.
pub fn archive_phase(
    run: &mut Run,
    base: InferenceInput<'_>,
    batches: &Batches,
    reference: &PipelineResult,
    tracer: &Tracer,
    extras: &mut Extras,
) {
    let service = PeeringService::build(base, &run.cfg, &run.par);
    let archive = SnapshotArchive::attach_with_retention(&service, None);
    for delta in batches.deltas() {
        archive.apply(delta);
    }
    run.check(
        "the archived service ends at the one-shot result",
        service.snapshot().result() == reference,
    );
    let targets = Targets::sample(&service.input(), &service.snapshot(), run.seed, TARGETS);
    reads(run, &service, &archive, &targets, tracer, extras, true);
    let mut rng = Rng::new(run.seed, 0x31E);
    let in_process = wire::InProcess {
        service: &service,
        archive: &archive,
        tracer,
    };
    let tally = wire::with_gateway(&service, &archive, |addr| {
        wire::client(
            addr,
            wire::Budget::Requests(WIRE_REQUESTS),
            &mut rng,
            &targets,
            Some(&in_process),
        )
    });
    match tally {
        Ok(tally) => {
            run.absorb(&tally);
            extras.absorb_wire(&tally);
        }
        Err(e) => run.check(&format!("bind the gateway: {e}"), false),
    }
}

/// Gateway routes whose dispatch the walk times in process.
const DISPATCH_ROUTES: [&str; 7] = [
    "gateway.dispatch.verdict",
    "gateway.dispatch.asn",
    "gateway.dispatch.ixp",
    "gateway.dispatch.explain",
    "gateway.dispatch.query",
    "gateway.dispatch.trend",
    "gateway.dispatch.churn",
];

/// The per-layer metrics of a traced run, every one from its spans or
/// the extras.
pub fn report(run: &mut Run, tracer: &Tracer, extras: &Extras) {
    let total = |name: &str| tracer.total_ms(name);
    let q = |name: &str, p: f64| percentile(&tracer.durations_ms(name), p).value;
    run.metric("topology.generate_ms", total("topology.generate"), "ms");
    run.metric(
        "topology.routes_to_us.p50",
        q("topology.routes_to", 50.0) * 1e3,
        "us",
    );
    run.metric("registry.fusion_ms", total("registry.fusion"), "ms");
    for layer in [
        "measure.vps",
        "measure.campaign",
        "measure.corpus_plan",
        "measure.trace_engine",
        "measure.corpus",
    ] {
        run.metric(format!("{layer}_ms"), total(layer), "ms");
    }
    run.metric(
        "measure.corpus_dst_us.p50",
        q("measure.corpus_dst", 50.0) * 1e3,
        "us",
    );
    run.metric(
        "measure.corpus_dst_us.p99",
        q("measure.corpus_dst", 99.0) * 1e3,
        "us",
    );
    run.metric("measure.corpus_dsts", extras.corpus_dsts as f64, "count");
    run.metric(
        "measure.corpus_traces",
        extras.corpus_traces as f64,
        "count",
    );
    run.metric(
        "measure.traces_per_table",
        extras.corpus_traces as f64 / extras.corpus_dsts.max(1) as f64,
        "ratio",
    );
    run.metric("bgp.prefix2as_ms", total("bgp.prefix2as"), "ms");
    for layer in [
        "core.intern",
        "core.step1",
        "core.step2",
        "core.step3",
        "core.step4",
        "core.step5",
        "core.pipeline",
        "core.incremental_build",
        "core.publish_full",
    ] {
        run.metric(format!("{layer}_ms"), total(layer), "ms");
    }
    for (layer, p) in [
        ("core.apply", 50.0),
        ("core.apply", 90.0),
        ("core.publish_delta", 50.0),
        ("core.publish_delta", 90.0),
    ] {
        run.metric(format!("{layer}_ms.p{p}"), q(layer, p), "ms");
    }
    run.metric(
        "core.dirty_frac",
        percentile(&extras.dirty_frac, 50.0).value,
        "ratio",
    );
    run.metric(
        "core.shared_partition_frac",
        percentile(&extras.shared_frac, 50.0).value,
        "ratio",
    );
    for family in ["verdict", "asn", "ixp", "explain", "batch"] {
        let name = format!("core.query.{family}");
        for p in [50.0, 99.0] {
            run.metric(
                format!("core.query_us.{family}.p{p}"),
                q(&name, p) * 1e3,
                "us",
            );
        }
    }
    for call in ["at", "trend", "churn"] {
        run.metric(
            format!("core.archive_us.{call}.p50"),
            q(&format!("core.archive.{call}"), 50.0) * 1e3,
            "us",
        );
    }
    run.metric("core.archive_retained_mb", extras.archive_retained_mb, "MB");
    for route in DISPATCH_ROUTES {
        let short = route.trim_start_matches("gateway.dispatch.");
        for p in [50.0, 99.0] {
            run.metric(
                format!("gateway.dispatch_us.{short}.p{p}"),
                q(route, p) * 1e3,
                "us",
            );
        }
    }
    run.metric(
        "gateway.wire_ms.p50",
        percentile(&extras.wire_ms, 50.0).value,
        "ms",
    );
    run.metric("gateway.status_200", extras.status_200 as f64, "count");
    run.metric("gateway.status_404", extras.status_404 as f64, "count");
    let coverage = extras.coverage;
    run.check(
        &format!(
            "layer spans cover {coverage:.4} of the sequential one-shot (need {MIN_COVERAGE})"
        ),
        coverage >= MIN_COVERAGE,
    );
    run.metric("trace.coverage", coverage, "ratio");
    run.metric("trace.overhead_ms", extras.overhead_ms, "ms");
}

/// The stepwise and layered checks of the walk.
fn check_layered(
    run: &mut Run,
    layered: &Layered<'_>,
    reference_input: &InferenceInput<'_>,
    reference: &PipelineResult,
    tracer: &Tracer,
) -> PipelineResult {
    let input = layered.service.input();
    run.check(
        "layer-by-layer sequential input content_eq assemble_parallel's input",
        input.content_eq(reference_input),
    );
    let (stepwise, result) = steps(&input, &run.cfg, tracer);
    run.check(
        "run_pipeline over the layered input equals the published one-shot snapshot",
        &result == reference,
    );
    run.check(
        "steps 1-5 called one by one reproduce run_pipeline's inferences",
        stepwise == result.inferences,
    );
    run.check(
        "the layered service publishes run_pipeline's result",
        layered.service.snapshot().result() == &result,
    );
    result
}

/// The walk every traced run makes: the layered one-shot and its checks
/// against the workload's `assemble_parallel` input and published
/// result, the route-table and single-destination samples, and
/// `trace.coverage`. Returns the layered input cut into epoch deltas,
/// and its measurement-free base, for the incremental pass and the
/// archive phase.
pub fn walk<'w>(
    run: &mut Run,
    world: &'w World,
    tracer: &Tracer,
    reference_input: &InferenceInput<'_>,
    reference: &PipelineResult,
    extras: &mut Extras,
) -> (Batches, InferenceInput<'w>) {
    let layered = layered_oneshot(world, run.seed, &run.cfg, &run.par, tracer);
    check_layered(run, &layered, reference_input, reference, tracer);
    samples(world, &layered, run.seed, tracer);
    extras.coverage = coverage(run);
    let input = layered.service.input();
    extras.corpus_dsts = layered.plan.len();
    extras.corpus_traces = input.corpus.len();
    (
        Batches::from_input(world, &input, run.seed),
        base_of(&input),
    )
}
