//! The seeded request mix and the closed-loop HTTP/1.1 client.
//!
//! The client sets `TCP_NODELAY` and sends each request in one write,
//! so any stall left in a request's latency is the server's own.

use crate::common::{Rng, Targets, GATEWAY_THREADS};
use crate::trace::Tracer;
use opeer_core::archive::SnapshotArchive;
use opeer_core::service::{PeeringService, QueryRequest};
use opeer_gateway::http::{ClientConn, Request};
use opeer_gateway::metrics::MetricsRegistry;
use opeer_gateway::routes::dispatch;
use opeer_gateway::{Gateway, GatewayConfig, GatewayControl};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests per `POST /query` batch.
const BATCH: usize = 16;
/// A stalled server is a failure to report, not a hang.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// One request of the mix, with the status it must get.
pub struct Req {
    pub method: &'static str,
    pub path: &'static str,
    pub query: Vec<(&'static str, String)>,
    pub body: Vec<u8>,
    pub expect: u16,
    /// Span name of its in-process dispatch (`gateway.dispatch.<route>`).
    pub span: &'static str,
    /// Answers at the live epoch, which must never go backwards.
    pub live: bool,
}

impl Req {
    fn get(path: &'static str, span: &'static str, query: Vec<(&'static str, String)>) -> Req {
        Req {
            method: "GET",
            path,
            query,
            body: Vec::new(),
            expect: 200,
            span,
            live: true,
        }
    }

    fn target(&self) -> String {
        let mut t = self.path.to_string();
        for (i, (k, v)) in self.query.iter().enumerate() {
            t.push(if i == 0 { '?' } else { '&' });
            t.push_str(&format!("{k}={v}"));
        }
        t
    }

    /// The whole request frame, for a single write.
    pub fn frame(&self) -> Vec<u8> {
        let mut head = format!(
            "{} {} HTTP/1.1\r\nhost: bench\r\n",
            self.method,
            self.target()
        );
        if self.method == "POST" {
            head.push_str(&format!("content-length: {}\r\n", self.body.len()));
        }
        head.push_str("\r\n");
        let mut frame = head.into_bytes();
        frame.extend_from_slice(&self.body);
        frame
    }

    /// The same request as the gateway's parser would hand to its routes.
    pub fn parsed(&self) -> Request {
        Request {
            method: self.method.to_string(),
            path: self.path.to_string(),
            query: self
                .query
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            headers: BTreeMap::new(),
            body: self.body.clone(),
            close: false,
        }
    }
}

/// The request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Verdict,
    Asn,
    Ixp,
    Explain,
    /// `POST /query` with a mixed batch.
    Query,
    /// A point lookup of any family at an earlier `epoch=N`.
    TimeTravel,
    Trend,
    Churn,
    /// An unknown interface, ASN, IXP or route: must be answered 404.
    Miss,
}

/// The mix: every request class in turn, so each gets an equal share
/// (one in nine), as the repo's serving study cycles its query
/// families. The shares are chosen, not measured from real traffic;
/// the seed draws only the keys.
pub const MIX: [Kind; 9] = [
    Kind::Verdict,
    Kind::Asn,
    Kind::Ixp,
    Kind::Explain,
    Kind::Query,
    Kind::TimeTravel,
    Kind::Trend,
    Kind::Churn,
    Kind::Miss,
];

/// The `k`-th request of the mix. `epoch_hi` bounds time-travel epochs
/// to ones already published.
pub fn nth_request(k: usize, rng: &mut Rng, t: &Targets, epoch_hi: u64) -> Req {
    request(MIX[k % MIX.len()], rng, t, epoch_hi)
}

/// A request of one class with seeded keys.
pub fn request(kind: Kind, rng: &mut Rng, t: &Targets, epoch_hi: u64) -> Req {
    let iface = |rng: &mut Rng| t.ifaces[rng.below(t.ifaces.len())];
    let asn = |rng: &mut Rng| t.asns[rng.below(t.asns.len())];
    match kind {
        Kind::Verdict => {
            let (x, a) = iface(rng);
            Req::get(
                "/verdict",
                "gateway.dispatch.verdict",
                vec![("ixp", x.to_string()), ("iface", a.to_string())],
            )
        }
        Kind::Asn => Req::get(
            "/asn",
            "gateway.dispatch.asn",
            vec![("asn", asn(rng).value().to_string())],
        ),
        Kind::Ixp => Req::get(
            "/ixp",
            "gateway.dispatch.ixp",
            vec![("ixp", rng.below(t.ixps).to_string())],
        ),
        Kind::Explain => Req::get(
            "/explain",
            "gateway.dispatch.explain",
            vec![("iface", iface(rng).1.to_string())],
        ),
        Kind::Query => {
            let batch: Vec<QueryRequest> = (0..BATCH)
                .map(|k| match k % 4 {
                    0 => {
                        let (ixp, iface) = iface(rng);
                        QueryRequest::Verdict { ixp, iface }
                    }
                    1 => QueryRequest::AsnReport { asn: asn(rng) },
                    2 => QueryRequest::IxpReport {
                        ixp: rng.below(t.ixps),
                    },
                    _ => QueryRequest::Explain {
                        iface: iface(rng).1,
                    },
                })
                .collect();
            Req {
                method: "POST",
                path: "/query",
                query: Vec::new(),
                body: serde_json::to_string(&batch)
                    .expect("query batch serialises")
                    .into_bytes(),
                expect: 200,
                span: "gateway.dispatch.query",
                live: true,
            }
        }
        Kind::TimeTravel => {
            let family = [Kind::Verdict, Kind::Asn, Kind::Ixp, Kind::Explain][rng.below(4)];
            let mut r = request(family, rng, t, epoch_hi);
            r.query
                .push(("epoch", (rng.next_u64() % (epoch_hi + 1)).to_string()));
            r.live = false;
            r
        }
        // Trend and churn report history, not the live epoch.
        Kind::Trend => Req {
            live: false,
            ..Req::get(
                "/trend",
                "gateway.dispatch.trend",
                vec![("ixp", rng.below(t.ixps).to_string())],
            )
        },
        Kind::Churn => Req {
            live: false,
            ..Req::get(
                "/churn",
                "gateway.dispatch.churn",
                vec![("asn", asn(rng).value().to_string())],
            )
        },
        Kind::Miss => {
            let mut r = match rng.below(4) {
                0 => {
                    let a = t.unknown_ifaces[rng.below(t.unknown_ifaces.len())];
                    Req::get(
                        "/explain",
                        "gateway.dispatch.explain",
                        vec![("iface", a.to_string())],
                    )
                }
                1 => {
                    let a = t.unknown_asns[rng.below(t.unknown_asns.len())];
                    Req::get(
                        "/asn",
                        "gateway.dispatch.asn",
                        vec![("asn", a.value().to_string())],
                    )
                }
                2 => Req::get(
                    "/ixp",
                    "gateway.dispatch.ixp",
                    vec![("ixp", (t.ixps + rng.below(1000)).to_string())],
                ),
                _ => Req::get("/nope", "gateway.dispatch.other", Vec::new()),
            };
            r.expect = 404;
            r.live = false;
            r
        }
    }
}

/// The gateway configuration, fixed in code: loopback on an ephemeral
/// port, two workers, no auth, no rate limit, the stock size limits.
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: GATEWAY_THREADS,
        max_header_bytes: 8 * 1024,
        max_body_bytes: 1024 * 1024,
        read_timeout: Duration::from_secs(5),
        api_keys: Vec::new(),
        rate_per_sec: 0.0,
        rate_burst: 0.0,
    }
}

/// Stops the gateway when dropped, so a panicking load thread cannot
/// leave the accept loop (and the scope joining it) running forever.
struct StopOnDrop(GatewayControl);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Serves `service` and `archive` on loopback while `load` runs against
/// the bound address; stops and joins the gateway afterwards.
pub fn with_gateway<R>(
    service: &PeeringService<'_>,
    archive: &SnapshotArchive<'_, '_>,
    load: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<R> {
    let gateway = Gateway::bind(gateway_config())?;
    let addr = gateway.local_addr();
    let stop = StopOnDrop(gateway.control());
    Ok(std::thread::scope(|s| {
        s.spawn(|| gateway.serve_with(service, Some(archive)));
        let out = load(addr);
        drop(stop);
        out
    }))
}

/// The first `epoch` field found in a JSON document, depth first.
fn find_epoch(v: &Value) -> Option<u64> {
    match v {
        Value::Object(members) => members
            .iter()
            .find(|(k, _)| k == "epoch")
            .and_then(|(_, e)| e.as_u64())
            .or_else(|| members.iter().find_map(|(_, m)| find_epoch(m))),
        Value::Array(items) => items.iter().find_map(find_epoch),
        _ => None,
    }
}

/// When the client stops.
pub enum Budget {
    Until(Instant),
    Requests(usize),
}

/// In-process dispatch of every request the client sends, on the
/// snapshot and archive the gateway serves: the route's own cost,
/// without the wire.
pub struct InProcess<'a, 's, 'w> {
    pub service: &'a PeeringService<'w>,
    pub archive: &'a SnapshotArchive<'s, 'w>,
    pub tracer: &'a Tracer,
}

/// What the client saw.
#[derive(Default)]
pub struct Tally {
    /// Client-side latency of every answered request, ms.
    pub latency_ms: Vec<f64>,
    /// Client latency minus in-process dispatch time, ms.
    pub wire_ms: Vec<f64>,
    pub status: BTreeMap<u16, u64>,
    /// Requests sent, answered or not.
    pub attempted: u64,
    /// Wrong status, unparsable body, epoch regression or socket error.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}

/// One closed-loop keep-alive connection: send, read the answer, audit
/// it, repeat until the budget is spent; then scrape `/metrics` for the
/// panic counter.
pub fn client(
    addr: SocketAddr,
    budget: Budget,
    rng: &mut Rng,
    targets: &Targets,
    in_process: Option<&InProcess<'_, '_, '_>>,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = match ClientConn::connect(addr, CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("connect: {e}"));
            return tally;
        }
    };
    if let Err(e) = conn.stream().set_nodelay(true) {
        tally.fail(format!("TCP_NODELAY: {e}"));
    }
    let scratch = MetricsRegistry::default();
    let mut live_epoch = 0u64;
    let mut sent = 0usize;
    loop {
        let more = match budget {
            Budget::Until(deadline) => Instant::now() < deadline,
            Budget::Requests(n) => sent < n,
        };
        if !more {
            break;
        }
        let req = nth_request(sent, rng, targets, live_epoch);
        let frame = req.frame();
        sent += 1;
        tally.attempted += 1;
        let t = Instant::now();
        let answer = conn
            .stream()
            .write_all(&frame)
            .and_then(|()| conn.read_response());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let response = match answer {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("{} {}: {e}", req.method, req.target()));
                break;
            }
        };
        tally.latency_ms.push(ms);
        *tally.status.entry(response.status).or_default() += 1;
        if response.status != req.expect {
            tally.fail(format!(
                "{} {}: status {} != {}",
                req.method,
                req.target(),
                response.status,
                req.expect
            ));
            continue;
        }
        let body: Value = match serde_json::from_slice(&response.body) {
            Ok(v) => v,
            Err(e) => {
                tally.fail(format!("{}: body is not JSON: {e}", req.target()));
                continue;
            }
        };
        if req.live {
            match find_epoch(&body) {
                Some(e) if e >= live_epoch => live_epoch = e,
                Some(e) => tally.fail(format!(
                    "{}: epoch went back from {live_epoch} to {e}",
                    req.target()
                )),
                None => tally.fail(format!("{}: no epoch in answer", req.target())),
            }
        }
        if let Some(ip) = in_process {
            let parsed = req.parsed();
            let snapshot = ip.service.snapshot();
            let span = ip.tracer.open(req.span, None, sent as u64);
            let outcome = dispatch(
                &parsed,
                &snapshot,
                Duration::ZERO,
                Some(ip.archive),
                &scratch,
            );
            let dispatch_ms = span.close();
            tally.wire_ms.push(ms - dispatch_ms);
            if outcome.status != response.status {
                tally.fail(format!(
                    "{}: in-process status {} != wire status {}",
                    req.target(),
                    outcome.status,
                    response.status
                ));
            }
        }
    }
    tally.attempted += 1;
    let scraped = conn
        .stream()
        .write_all(b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n")
        .and_then(|()| conn.read_response());
    match scraped.map(|r| serde_json::from_slice::<Value>(&r.body)) {
        Ok(Ok(doc)) => {
            let panics = doc
                .get("taxonomy")
                .and_then(|t| t.get("internal_panic"))
                .and_then(Value::as_u64);
            if panics != Some(0) {
                tally.fail(format!("/metrics internal_panic = {panics:?}"));
            }
        }
        Ok(Err(e)) => tally.fail(format!("/metrics body is not JSON: {e}")),
        Err(e) => tally.fail(format!("/metrics: {e}")),
    }
    tally
}
