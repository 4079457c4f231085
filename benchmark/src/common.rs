//! What every workload shares: the fixed knobs, the world, the run
//! ledger of operations and checks, and the reported metrics.

use crate::stats::percentile;
use crate::trace::Tracer;
use opeer_core::engine::ParallelConfig;
use opeer_core::incremental::InputDelta;
use opeer_core::input::default_configs;
use opeer_core::pipeline::PipelineConfig;
use opeer_core::service::Snapshot;
use opeer_core::InferenceInput;
use opeer_measure::campaign::{campaign_batches, CampaignResult};
use opeer_measure::traceroute::Traceroute;
use opeer_net::Asn;
use opeer_topology::{World, WorldConfig, WorldConfigBuilder};
use serde::Value;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Engine worker threads. Fixed in code (the reference host has 2 cores)
/// so that no environment variable changes what is measured.
pub const THREADS: usize = 2;
/// Gateway worker threads.
pub const GATEWAY_THREADS: usize = 2;
/// Measurement epochs the stream is cut into.
pub const EPOCHS: usize = 120;
/// Set-ups per measured run.
pub const SETUP_REPS: usize = 3;

/// The measured world: the `large` preset at half member scale with a
/// trimmed long tail (about 5.3k ASes, 237 IXPs, 6.8k memberships).
pub fn world_config(seed: u64) -> WorldConfig {
    WorldConfigBuilder::from_config(WorldConfig::large(seed))
        .scale(0.5)
        .n_small_ixps(200)
        .n_background_ases(500)
        .build()
        .expect("the benchmark world config is valid")
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: the benchmark's own seeded stream for sampling targets
/// and request mixes.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by the run seed and a purpose salt.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The run ledger: every timed operation and every output check counts
/// as attempted; any that goes wrong counts as failed and is named.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub par: ParallelConfig,
    pub cfg: PipelineConfig,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub detail: Vec<(String, Value)>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            seed,
            seconds,
            traced: trace,
            par: ParallelConfig::new(THREADS),
            cfg: PipelineConfig::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// Set-up repetitions: several in a measured run (their median is
    /// `setup_s`), one in a traced run.
    pub fn setup_reps(&self) -> usize {
        if self.traced {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Counts one operation or check; a failure is named on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
            if self.failures.len() < 32 {
                self.failures.push(what.to_string());
            }
        }
    }

    /// Counts a wire client's requests and failures.
    pub fn absorb(&mut self, tally: &crate::wire::Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        for f in &tally.failures {
            eprintln!("FAILED: {f}");
        }
        let room = 32usize.saturating_sub(self.failures.len());
        self.failures
            .extend(tally.failures.iter().take(room).cloned());
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Records a percentile with its sample count and resolution.
    pub fn quantile_note(&mut self, key: &str, samples: &[f64], p: f64) -> f64 {
        let q = percentile(samples, p);
        self.note(
            key,
            obj(vec![
                ("p", Value::F64(q.p)),
                ("value", num(q.value)),
                ("n", Value::U64(q.n as u64)),
                ("beyond", Value::U64(q.beyond as u64)),
                ("resolved", Value::Bool(q.resolved)),
            ]),
        );
        q.value
    }

    /// The end-to-end metrics every measured run reports. `peak_mb` is
    /// the process's peak resident set (see [`peak_rss_mb`]). `op_ms` holds
    /// one latency per work item of the workload (the reproduction, each
    /// epoch delta, each request), `write_ms` one per write that
    /// publishes a snapshot; where a workload repeats an item, its
    /// fastest repetition stands for it (see `stats::fastest_per_item`).
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        peak_mb: f64,
        op_ms: &[f64],
        ops_per_s: f64,
        write_ms: &[f64],
    ) {
        let setup = self.quantile_note("setup_s", setup_s, 50.0);
        self.note(
            "setup_samples_s",
            Value::Array(setup_s.iter().map(|&s| num(s)).collect()),
        );
        self.metric("setup_s", setup, "s");
        self.metric("peak_rss_mb", peak_mb, "MB");
        let p50 = self.quantile_note("op_p50_ms", op_ms, 50.0);
        self.metric("op_p50_ms", p50, "ms");
        let p90 = self.quantile_note("op_p90_ms", op_ms, 90.0);
        self.metric("op_p90_ms", p90, "ms");
        self.metric("op_per_s", ops_per_s, "1/s");
        let write = self.quantile_note("write_p50_ms", write_ms, 50.0);
        self.metric("write_p50_ms", write, "ms");
    }
}

/// Generates the world in a `topology.generate` span.
pub fn generate(seed: u64, tracer: &Tracer, rep: u64) -> World {
    tracer.time("topology.generate", None, rep, || {
        world_config(seed).generate()
    })
}

/// A JSON number, or `null` for a value that has none (an empty sample).
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

/// Builds a JSON object from key/value pairs.
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The input dimensions a result was measured on, so two results can be
/// checked for having measured the same input.
pub fn dims(world: &World, corpus_dsts: usize, input: &InferenceInput<'_>, epochs: usize) -> Value {
    obj(vec![
        ("ases", Value::U64(world.ases.len() as u64)),
        ("ixps", Value::U64(world.ixps.len() as u64)),
        ("memberships", Value::U64(world.memberships.len() as u64)),
        ("corpus_destinations", Value::U64(corpus_dsts as u64)),
        ("traces", Value::U64(input.corpus.len() as u64)),
        (
            "campaign_observations",
            Value::U64(input.campaign.observations.len() as u64),
        ),
        ("epochs", Value::U64(epochs as u64)),
    ])
}

/// Number of corpus destinations (one route table each) for a world.
pub fn corpus_destinations(world: &World, seed: u64) -> usize {
    let (_, _, corpus_cfg) = default_configs(seed);
    opeer_measure::traceroute::plan_corpus(world, &corpus_cfg).len()
}

/// The measurement-free epoch-0 input with the substrate of `input`.
pub fn base_of<'w>(input: &InferenceInput<'w>) -> InferenceInput<'w> {
    InferenceInput {
        world: input.world,
        observed: input.observed.clone(),
        table1: input.table1.clone(),
        vps: input.vps.clone(),
        campaign: CampaignResult::default(),
        corpus: Vec::new(),
        ip2as: input.ip2as.clone(),
        interns: input.interns.clone(),
    }
}

/// The measurement stream as owned batches, so every pass over it can
/// rebuild its deltas.
#[derive(Clone)]
pub struct Batches {
    pub campaign: Vec<CampaignResult>,
    pub corpus: Vec<Vec<Traceroute>>,
}

impl Batches {
    /// The stream's deltas, one per epoch.
    pub fn deltas(&self) -> Vec<InputDelta> {
        InputDelta::zip_batches(self.campaign.clone(), self.corpus.clone())
    }

    /// Epochs in the stream.
    pub fn len(&self) -> usize {
        self.campaign.len().max(self.corpus.len())
    }

    /// The stream cut from an assembled input: the campaign re-run in
    /// VP batches (cheap) and the assembled corpus sliced in order.
    pub fn from_input(world: &World, input: &InferenceInput<'_>, seed: u64) -> Batches {
        let (_, campaign_cfg, _) = default_configs(seed);
        Batches {
            campaign: campaign_batches(world, &input.vps, campaign_cfg, EPOCHS),
            corpus: opeer_measure::batch_ranges(input.corpus.len(), EPOCHS)
                .into_iter()
                .map(|r| input.corpus[r].to_vec())
                .collect(),
        }
    }
}

/// Lookup keys drawn from the registry, verified against a snapshot so
/// every request's expected status is known before it is sent.
pub struct Targets {
    /// `(ixp, iface)` pairs of member interfaces.
    pub ifaces: Vec<(usize, Ipv4Addr)>,
    /// Member ASNs.
    pub asns: Vec<Asn>,
    /// Observed IXP count (valid ids are `0..ixps`).
    pub ixps: usize,
    /// Interfaces no registry lists.
    pub unknown_ifaces: Vec<Ipv4Addr>,
    /// ASNs no registry lists.
    pub unknown_asns: Vec<Asn>,
}

impl Targets {
    /// A seeded sample of `n` keys of each kind.
    pub fn sample(input: &InferenceInput<'_>, snapshot: &Snapshot, seed: u64, n: usize) -> Targets {
        let all: Vec<(usize, Ipv4Addr, Asn)> = input
            .observed
            .ixps
            .iter()
            .enumerate()
            .flat_map(|(i, ixp)| ixp.interfaces.iter().map(move |(&a, &asn)| (i, a, asn)))
            .collect();
        let mut rng = Rng::new(seed, 0x7A56);
        let mut ifaces = Vec::with_capacity(n);
        let mut asns = Vec::with_capacity(n);
        for _ in 0..n {
            let (ixp, addr, asn) = all[rng.below(all.len())];
            if snapshot.verdict(ixp, addr).is_ok() && snapshot.explain(addr).is_ok() {
                ifaces.push((ixp, addr));
            }
            if snapshot.asn_report(asn).is_ok() {
                asns.push(asn);
            }
        }
        // Benchmark-reserved space (198.18.0.0/15) and private-use ASNs.
        let unknown_ifaces = (0..16u32)
            .map(|k| Ipv4Addr::from(0xC612_0000 + k * 977 + 1))
            .filter(|&a| snapshot.explain(a).is_err())
            .collect();
        let unknown_asns = (0..16u32)
            .map(|k| Asn::new(4_200_000_000 + k))
            .filter(|&a| snapshot.asn_report(a).is_err())
            .collect();
        Targets {
            ifaces,
            asns,
            ixps: snapshot.ixp_count(),
            unknown_ifaces,
            unknown_asns,
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
