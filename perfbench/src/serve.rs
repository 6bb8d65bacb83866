//! The server layers, probed on a closed-loop corpus. Two client
//! connections post each distinct request of the corpus to a fresh
//! `netart serve --workers 2 --shards 1` at the same moment, so that one
//! computes it and the other joins that computation in flight; then one
//! connection posts it again, to be answered from the cache. The
//! client's counts are checked against the server's `/metrics`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use netart::obs::{Json, ServeReport};

use crate::pipeline::Job;
use crate::server::{delta, http, scrape, Scrape, Server};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// One sent request, as the client saw it.
struct Answer {
    sent: Instant,
    done: Instant,
    status: u16,
    body: Vec<u8>,
}

/// An answer with its body parsed.
struct Reply {
    answer: Answer,
    report: Option<ServeReport>,
}

impl Reply {
    fn parse(answer: Answer) -> Reply {
        let report = std::str::from_utf8(&answer.body)
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .and_then(|j| ServeReport::from_json(&j).ok());
        Reply { answer, report }
    }
}

/// Posts every distinct request three times, as above, and records
/// the engine and HTTP layer metrics. A disagreement between client
/// and server counts fails the run.
pub fn probe(args: &Args, jobs: &[Job], tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut modules: BTreeMap<&str, &str> = BTreeMap::new();
    for (stem, qto) in jobs.iter().flat_map(|j| &j.text.modules) {
        if modules.insert(stem, qto).is_some_and(|old| old != qto) {
            return Err(format!("template {stem} differs between diagrams"));
        }
    }
    let mut seen = BTreeSet::new();
    let bodies: Vec<String> = jobs
        .iter()
        .map(request_body)
        .filter(|b| seen.insert(b.clone()))
        .collect();
    let work = workdir(args, &modules)?;
    let server = Server::boot(&args.netart, &work)?;
    let before = scrape(&server.addr)?;
    let mut replies = Vec::new();
    for body in &bodies {
        let both = Barrier::new(2);
        let pair = std::thread::scope(|s| {
            let at_once = || {
                both.wait();
                post(&server.addr, body)
            };
            let other = s.spawn(at_once);
            let mine = at_once();
            [
                mine,
                other.join().unwrap_or(Err("client thread panicked".into())),
            ]
        });
        for answer in pair {
            replies.push(Reply::parse(answer?));
        }
        replies.push(Reply::parse(post(&server.addr, body)?));
    }
    let after = scrape(&server.addr)?;
    server.stop()?;
    let _ = std::fs::remove_dir_all(&work);
    if let Some(bad) = replies.iter().find(|r| r.answer.status != 200) {
        out.fail(format!("the server answered {}", bad.answer.status));
    }
    if let Err(e) = agree(&before, &after, &replies) {
        out.fail(format!("client and /metrics disagree: {e}"));
    }
    out.note(format!(
        "server probe: {} distinct requests, {} posted",
        bodies.len(),
        replies.len()
    ));
    layers(out, tr, &replies, &before, &after);
    Ok(())
}

/// One `POST /v1/diagram` on a fresh connection.
fn post(addr: &str, body: &str) -> Result<Answer, String> {
    let sent = Instant::now();
    let (status, body) = http(addr, "POST", "/v1/diagram", body)?;
    Ok(Answer {
        sent,
        done: Instant::now(),
        status,
        body,
    })
}

/// A scratch directory for one server, its `lib/` holding `modules`
/// (name → `.qto` text).
fn workdir(args: &Args, modules: &BTreeMap<&str, &str>) -> Result<PathBuf, String> {
    let work = args.out_dir.join(format!("serve-{}", std::process::id()));
    let lib = work.join("lib");
    std::fs::create_dir_all(&lib).map_err(|e| format!("{}: {e}", lib.display()))?;
    for (name, qto) in modules {
        let path = lib.join(format!("{name}.qto"));
        std::fs::write(&path, qto).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(work)
}

fn request_body(job: &Job) -> String {
    let t = &job.text;
    let mut doc = Json::obj()
        .with("net", t.net.as_str())
        .with("cal", t.cal.as_str());
    if !t.io.is_empty() {
        doc = doc.with("io", t.io.as_str());
    }
    doc.render()
}

/// The client's counts by outcome and by cache result must equal the
/// server's counter deltas over the run, and the server's latency
/// histogram must have counted every request.
fn agree(before: &Scrape, after: &Scrape, replies: &[Reply]) -> Result<(), String> {
    let mut outcomes: BTreeMap<&str, f64> = BTreeMap::new();
    let mut cache: BTreeMap<&str, f64> = BTreeMap::new();
    for r in replies {
        let outcome = match (r.answer.status, &r.report) {
            (429, _) => "shed",
            (_, Some(rep)) => rep.status.as_str(),
            _ => "unparsed",
        };
        *outcomes.entry(outcome).or_default() += 1.0;
        if let Some(rep) = r.report.as_ref().filter(|_| r.answer.status == 200) {
            *cache.entry(rep.cache.as_str()).or_default() += 1.0;
        }
    }
    let mut errors = Vec::new();
    let mut compare = |what: String, client: f64, key: String| {
        let server = delta(before, after, &key);
        if client != server {
            errors.push(format!("{what}: client {client}, server {server}"));
        }
    };
    for o in [
        "clean",
        "degraded",
        "failed",
        "shed",
        "drain_reject",
        "panic",
        "unparsed",
    ] {
        let client = outcomes.get(o).copied().unwrap_or(0.0);
        compare(
            o.to_owned(),
            client,
            format!("netart_serve_requests_total{{outcome=\"{o}\"}}"),
        );
    }
    for c in ["hit", "miss", "coalesced"] {
        let client = cache.get(c).copied().unwrap_or(0.0);
        compare(
            format!("cache {c}"),
            client,
            format!("netart_serve_cache_requests_total{{result=\"{c}\"}}"),
        );
    }
    compare(
        "latency count".to_owned(),
        replies.len() as f64,
        "netart_serve_request_latency_ns_count".to_owned(),
    );
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// The engine and HTTP layer metrics, and the client spans with the
/// server's reported phases as their children.
fn layers(out: &mut Outcome, tr: &mut Tracer, replies: &[Reply], before: &Scrape, after: &Scrape) {
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut compute_ms = Vec::new();
    let (mut hits, mut coalesced, mut shed) = (0u64, 0u64, 0u64);
    for (i, r) in replies.iter().enumerate() {
        let a = &r.answer;
        // Request groups sit above every diagram group.
        let group = (1 << 32) + i as u64;
        let span = tr.record("request", group, None, a.sent, a.done);
        let ms = (a.done - a.sent).as_secs_f64() * 1e3;
        shed += u64::from(a.status == 429);
        let Some(rep) = &r.report else { continue };
        match rep.cache.as_str() {
            "hit" => {
                hits += 1;
                hit_ms.push(ms);
            }
            "miss" => {
                miss_ms.push(ms);
                let mut at = a.sent;
                let mut total = 0u64;
                for p in rep.report.iter().flat_map(|run| &run.phases) {
                    let d = Duration::from_nanos(p.wall_ns);
                    let name = match p.name.as_str() {
                        "doctor" => "server.doctor",
                        "place" => "server.place",
                        "route" => "server.route",
                        "emit" => "server.emit",
                        _ => "server.other",
                    };
                    tr.record(name, group, span, at, at + d);
                    at += d;
                    total += p.wall_ns;
                }
                compute_ms.push(total as f64 / 1e6);
            }
            _ => coalesced += 1,
        }
    }
    let wait_n = delta(before, after, "netart_serve_queue_wait_ns_count");
    let wait_ms = if wait_n > 0.0 {
        delta(before, after, "netart_serve_queue_wait_ns_sum") / wait_n / 1e6
    } else {
        0.0
    };
    out.metric("serve.queue_wait_mean_ms", wait_ms, "ms");
    out.metric(
        "serve.hit_ratio",
        hits as f64 / replies.len().max(1) as f64,
        "ratio",
    );
    out.metric("serve.coalesced", coalesced as f64, "count");
    out.metric("serve.shed", shed as f64, "count");
    out.metric("serve.hit_p50_ms", median(&hit_ms), "ms");
    out.metric("serve.miss_p50_ms", median(&miss_ms), "ms");
    out.metric("serve.compute_mean_ms", mean(&compute_ms), "ms");
    out.metric(
        "serve.overhead_mean_ms",
        mean(&miss_ms) - mean(&compute_ms) - wait_ms,
        "ms",
    );
}
