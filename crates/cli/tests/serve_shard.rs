//! Integration suite for `netart serve --shards N`: supervised
//! multi-process sharding.
//!
//! Pins the acceptance contract of the shard supervisor:
//!
//! * (a) `kill -9` of one worker never drops in-flight requests on
//!   surviving shards, and the supervisor respawns the dead shard
//!   within the backoff bound;
//! * (b) artifact replays are byte-identical between `--shards 1` and
//!   `--shards 4` — sharding must not change a single output byte;
//! * (c) repeated forced crashes trip the crash-loop breaker: the
//!   shard is quarantined (no respawn spinning) and `/readyz`
//!   degrades to `503 quorum_lost` while the survivor keeps serving;
//! * shard identity surfaces everywhere: `s{shard}-r{seq:06}` rids,
//!   a `shard` label on `netart_build_info`, per-shard liveness
//!   gauges and `netart_serve_shard_restarts_total` in `/metrics`,
//!   `shard_live`/`shard_restarts` in `/stats`;
//! * SIGTERM fans out: the whole fleet drains within the grace and
//!   the supervisor exits 0 with a fleet summary.

mod common;

use std::collections::HashSet;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{chain_inputs, diagram_request, scratch, write_lib, ServeProc};
use netart::obs::{Json, ServeReport};

/// The supervisor's direct children (the shard workers), via procfs.
fn worker_pids(supervisor: u32) -> Vec<u32> {
    let path = format!("/proc/{supervisor}/task/{supervisor}/children");
    std::fs::read_to_string(path)
        .map(|s| s.split_whitespace().filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default()
}

/// CPU ticks (utime + stime) a process has burned, via `/proc/<pid>/stat`.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized comm: state is index 0, so utime
    // and stime land at indices 11 and 12.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    tick(11) + tick(12)
}

/// Polls `probe` until it returns true or `timeout` elapses.
fn wait_for(what: &str, timeout: Duration, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    loop {
        if probe() {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn parse_report(body: &str) -> ServeReport {
    ServeReport::from_json(&Json::parse(body).unwrap_or_else(|e| panic!("not JSON: {e}: {body}")))
        .unwrap_or_else(|e| panic!("not a serve report: {e}: {body}"))
}

#[test]
fn sharded_boot_stamps_shard_identity_everywhere() {
    let dir = scratch("shard-identity");
    let mut server = ServeProc::start(&write_lib(&dir), &["--shards", "1"]);

    // rids carry the shard prefix: a deadline-cancelled request names
    // itself in its own degradation record.
    let (net, cal, io) = chain_inputs(60);
    let body = diagram_request(&net, &cal, Some(&io))
        .with("options", Json::obj().with("timeout_ms", 1u64))
        .render_pretty();
    let response = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(response.status, 200);
    assert!(
        response.body.contains("request s0-r000000"),
        "sharded rids are s{{shard}}-r{{seq:06}}: {}",
        response.body
    );

    // /metrics: shard-labelled build info, per-shard liveness, and the
    // restart counter registered from boot.
    let metrics = server.exchange("GET", "/metrics", None).body;
    assert!(metrics.contains("netart_build_info{version="), "{metrics}");
    assert!(metrics.contains("shard=\"0\""), "{metrics}");
    assert!(metrics.contains("netart_serve_shard_live{shard=\"0\"} 1"), "{metrics}");
    assert!(metrics.contains("netart_serve_shard_restarts_total 0"), "{metrics}");

    // /stats: fleet gauges.
    let stats = server.exchange("GET", "/stats", None).body;
    assert!(stats.contains("\"shard_live\": 1"), "{stats}");
    assert!(stats.contains("\"shard_restarts\": 0"), "{stats}");

    // SIGTERM: quorum drain, exit 0, fleet summary on stdout.
    server.sigterm();
    let (code, rest) = server.wait_exit();
    assert_eq!(code, Some(0), "clean fleet drain");
    assert!(rest.contains("drained cleanly: 1 shard(s) supervised"), "{rest}");
}

#[test]
fn replays_are_byte_identical_between_one_and_four_shards() {
    let dir = scratch("shard-replay");
    let lib = write_lib(&dir);
    let (net, cal, io) = chain_inputs(8);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();

    let mut single = ServeProc::start(&lib, &["--shards", "1"]);
    let reference = parse_report(&single.exchange("POST", "/v1/diagram", Some(&body)).body);
    assert!(!reference.escher.is_empty() && !reference.svg.is_empty());
    single.sigterm();
    assert_eq!(single.wait_exit().0, Some(0));

    // Four shards, several replays: whichever worker computes (or
    // replays from its own cache), every byte must match the
    // single-process artifacts.
    let mut fleet = ServeProc::start(&lib, &["--shards", "4"]);
    for attempt in 0..6 {
        let report = parse_report(&fleet.exchange("POST", "/v1/diagram", Some(&body)).body);
        assert_eq!(report.artifact, reference.artifact, "attempt {attempt}");
        assert_eq!(report.escher, reference.escher, "attempt {attempt}: escher drifted");
        assert_eq!(report.svg, reference.svg, "attempt {attempt}: svg drifted");
    }
    fleet.sigterm();
    assert_eq!(fleet.wait_exit().0, Some(0));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn kill9_of_one_shard_spares_survivors_inflight_work_and_respawns() {
    let dir = scratch("shard-kill9");
    // Deep queues so the in-flight load is admitted, not shed.
    let mut server = ServeProc::start(
        &write_lib(&dir),
        &["--shards", "2", "--workers", "2", "--queue-depth", "8"],
    );
    wait_for("both workers", Duration::from_secs(10), || {
        worker_pids(server.pid()).len() == 2
    });
    wait_for("boot quorum readiness", Duration::from_secs(10), || {
        server.exchange("GET", "/readyz", None).status == 200
    });
    let before: Vec<u32> = worker_pids(server.pid());

    // Park slow, distinct (non-coalescing) requests across the fleet.
    let addr = server.addr.clone();
    let handles: Vec<_> = (0..6)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (net, cal, io) = chain_inputs(60 + k);
                let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
                common::http_request(&addr, "POST", "/v1/diagram", Some(&body))
                    .map(|r| r.status)
                    .unwrap_or(0)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(500));

    // The kernel is free to hand any accept to any worker, so pick the
    // victim by observed CPU: the busier worker is routing the parked
    // requests, the other holds at most half of them. Killing the
    // *less* busy worker guarantees live in-flight work survives it.
    let victim = *before
        .iter()
        .min_by_key(|&&p| cpu_ticks(p))
        .expect("two workers");

    // SIGKILL it mid-request: no unwinding, no drain — the
    // containment PR 5/6's catch_unwind cannot provide.
    assert!(Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("kill runs")
        .success());

    // (a) In-flight requests on the surviving shard complete. Requests
    // that were riding the killed worker's connections may fail at the
    // transport — that shard died — but the survivor-side requests
    // must answer 200, and none may hang.
    let outcomes: Vec<u16> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
    assert!(
        outcomes.contains(&200),
        "no in-flight request survived the kill: {outcomes:?}"
    );
    // The survivor keeps taking new work after the kill.
    let (net, cal, io) = chain_inputs(6);
    let fresh = diagram_request(&net, &cal, Some(&io)).render_pretty();
    wait_for("the survivor to serve", Duration::from_secs(10), || {
        server
            .request("POST", "/v1/diagram", Some(&fresh))
            .is_ok_and(|r| r.status == 200)
    });

    // The supervisor respawns within the backoff bound (first death:
    // ~100-125 ms; generous margin for process boot).
    wait_for("respawn", Duration::from_secs(10), || {
        let now = worker_pids(server.pid());
        now.len() == 2 && now.iter().any(|p| !before.contains(p))
    });
    // The respawn surfaces in telemetry and readiness recovers.
    wait_for("restart counter", Duration::from_secs(10), || {
        server
            .exchange("GET", "/metrics", None)
            .body
            .contains("netart_serve_shard_restarts_total 1")
    });
    wait_for("quorum readiness", Duration::from_secs(10), || {
        server.exchange("GET", "/readyz", None).status == 200
    });

    server.sigterm();
    let (code, rest) = server.wait_exit();
    assert_eq!(code, Some(0));
    assert!(
        rest.contains("drained cleanly: 2 shard(s) supervised, 1 restart(s)"),
        "{rest}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn crash_loop_trips_the_breaker_and_degrades_readiness_without_spinning() {
    let dir = scratch("shard-breaker");
    let mut server = ServeProc::start(
        &write_lib(&dir),
        &["--shards", "2", "--crash-limit", "3", "--crash-window", "60000"],
    );
    wait_for("both workers", Duration::from_secs(10), || {
        worker_pids(server.pid()).len() == 2
    });
    let initial = worker_pids(server.pid());
    // The survivor: one worker we never touch. Every kill lands on
    // the other shard (whatever pid its respawn is wearing).
    let survivor = initial[1];

    for round in 1..=3u32 {
        let victims: Vec<u32> = worker_pids(server.pid())
            .into_iter()
            .filter(|&p| p != survivor)
            .collect();
        assert_eq!(victims.len(), 1, "round {round}: exactly one victim shard");
        assert!(Command::new("kill")
            .args(["-9", &victims[0].to_string()])
            .status()
            .expect("kill runs")
            .success());
        if round < 3 {
            // Wait out the backoff for the respawn before striking
            // again — three deaths, all inside the 60 s window.
            let dead = victims[0];
            wait_for("respawn", Duration::from_secs(15), || {
                worker_pids(server.pid())
                    .iter()
                    .any(|&p| p != survivor && p != dead)
            });
        }
    }

    // (c) The third death inside the window trips the breaker: the
    // shard is quarantined and readiness degrades to 503 instead of a
    // respawn spin.
    wait_for("quorum_lost readiness", Duration::from_secs(10), || {
        let r = server.exchange("GET", "/readyz", None);
        r.status == 503 && r.body.contains("quorum_lost")
    });
    // Quarantine means *no* respawn: the fleet stays at one worker.
    std::thread::sleep(Duration::from_secs(1));
    let remaining = worker_pids(server.pid());
    assert_eq!(remaining, vec![survivor], "a quarantined shard is not respawned");

    // The survivor keeps serving: liveness intact, work still done,
    // two respawns on the counter (death 3 quarantined instead).
    assert_eq!(server.exchange("GET", "/healthz", None).status, 200);
    let (net, cal, io) = chain_inputs(4);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body)).status, 200);
    let metrics = server.exchange("GET", "/metrics", None).body;
    assert!(metrics.contains("netart_serve_shard_restarts_total 2"), "{metrics}");
    let live: HashSet<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("netart_serve_shard_live{"))
        .filter_map(|l| l.split_whitespace().nth(1))
        .collect();
    assert_eq!(
        live,
        HashSet::from(["0", "1"]),
        "one live gauge up, the quarantined one down: {metrics}"
    );
    let stats = server.exchange("GET", "/stats", None).body;
    assert!(stats.contains("\"shard_live\": 1"), "{stats}");
    assert!(stats.contains("\"shard_restarts\": 2"), "{stats}");

    // A degraded fleet still drains cleanly.
    server.sigterm();
    let (code, rest) = server.wait_exit();
    assert_eq!(code, Some(0));
    assert!(rest.contains("1 quarantined"), "{rest}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigusr1_fans_out_shard_stamped_blackboxes() {
    let dir = scratch("shard-usr1");
    let dump = dir.join("bb.json");
    let server = ServeProc::start(
        &write_lib(&dir),
        &["--shards", "2", "--blackbox", &dump.to_string_lossy()],
    );
    wait_for("both workers", Duration::from_secs(10), || {
        worker_pids(server.pid()).len() == 2
    });
    server.signal("USR1");
    // Each worker freezes its own ring under a shard-stamped name.
    for shard in 0..2 {
        let stamped = dir.join(format!("bb.s{shard}.json"));
        wait_for(&format!("blackbox {}", stamped.display()), Duration::from_secs(10), || {
            stamped.exists()
        });
    }
    assert!(!dump.exists(), "the unstamped path is never written in sharded mode");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sharded_sinks_refuse_stdout_by_flag_name() {
    let dir = scratch("shard-stdout-sinks");
    let lib = write_lib(&dir);
    for flag in ["--trace-out", "--access-log", "--blackbox"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_netart"))
            .current_dir(&dir)
            .args(["serve", "--addr", "127.0.0.1:0", "-L", &lib, "--shards", "1", flag, "-"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("netart serve spawns");
        // A supervisor that boots serves until signalled: stop it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("poll").is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        let refused = child.try_wait().expect("poll").is_some();
        if !refused {
            let _ = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
        }
        let out = child.wait_with_output().expect("serve exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(refused, "{flag} - booted a sharded server; stderr: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("{flag} -")), "{flag}: {stderr}");
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch dir")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with('-'))
            .collect();
        assert!(strays.is_empty(), "{flag} - left {strays:?}");
    }
}
