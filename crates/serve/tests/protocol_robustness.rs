//! Abuse-the-wire tests: malformed and truncated requests, oversized
//! lines, mid-request disconnects, racing clients, admission limits,
//! and shutdown persistence. The invariants: every failure is a
//! *typed* error response, the server never panics or wedges, and a
//! misbehaving client can never poison another client's cache
//! namespace.

use dataprism::ScoreCache;
use dp_frame::csv::write_csv;
use dp_serve::registry::build_scenario;
use dp_serve::{field_u64, is_ok, Client, ServeConfig, Server};
use dp_trace::{json_escape, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn start_default() -> (Server, Client) {
    let server = Server::start(ServeConfig::default()).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

fn stop(server: Server, client: &mut Client) {
    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}

fn error_code(v: &JsonValue) -> Option<String> {
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    v.get("code").and_then(|c| c.as_str()).map(str::to_string)
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let (server, mut client) = start_default();
    for (line, expected) in [
        ("not json at all", "malformed_request"),
        ("{\"op\":\"ping\"", "malformed_request"), // truncated object
        ("[1,2,3]", "malformed_request"),          // not an object
        ("{\"op\":42}", "malformed_request"),      // op not a string
        ("{\"op\":\"martian\"}", "unknown_op"),
        ("{\"op\":\"diagnose\"}", "malformed_request"), // missing system
        (
            "{\"op\":\"diagnose\",\"system\":\"s\",\"algo\":\"sideways\"}",
            "malformed_request",
        ),
        (
            "{\"op\":\"diagnose\",\"system\":\"nope\"}",
            "unknown_system",
        ),
        (
            "{\"op\":\"register\",\"system\":\"s\",\"scenario\":\"no-such\"}",
            "unknown_scenario",
        ),
    ] {
        let v = client.request(line).unwrap();
        assert_eq!(error_code(&v).as_deref(), Some(expected), "line: {line}");
    }
    // The connection is still perfectly usable after nine errors.
    assert!(is_ok(&client.ping().unwrap()));
    stop(server, &mut client);
}

#[test]
fn oversized_request_is_rejected_with_a_typed_error() {
    let server = Server::start(ServeConfig {
        max_line_bytes: 4096,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let huge = format!(
        "{{\"op\":\"warm\",\"system\":\"s\",\"trace\":\"{}\"}}",
        "x".repeat(64 * 1024)
    );
    let v = client.request(&huge).unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("oversized_request"));
    // The server hangs up after an oversized line (the remainder is
    // unrecoverable) — but keeps serving new connections.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(&fresh.ping().unwrap()));
    stop(server, &mut fresh);
}

#[test]
fn mid_request_disconnect_leaves_the_server_healthy() {
    let (server, mut client) = start_default();
    // A client that dies halfway through writing a request…
    {
        let mut dying = TcpStream::connect(server.local_addr()).unwrap();
        dying.write_all(b"{\"op\":\"regi").unwrap();
        dying.flush().unwrap();
        // dropped here without ever sending a newline
    }
    // …and one that dies right after the newline, without reading.
    {
        let mut dying = TcpStream::connect(server.local_addr()).unwrap();
        dying.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        dying.flush().unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(is_ok(&client.ping().unwrap()));
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    assert!(is_ok(&client.diagnose("ex", "greedy", None).unwrap()));
    stop(server, &mut client);
}

#[test]
fn bad_warm_and_restore_payloads_never_poison_the_namespace() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let baseline = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&baseline), "{baseline:?}");

    let v = client.warm("ex", "this is not jsonl\n").unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_trace"));
    // A trace from a future schema version is refused, not guessed at.
    let future = "{\"v\":9999,\"seq\":0,\"t_ns\":0,\"event\":{\"kind\":\"oracle_query\"}}\n";
    let v = client.warm("ex", future).unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_trace"));
    let v = client
        .restore("ex", "dp-score-cache v1\nnot a pair\n")
        .unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_snapshot"));
    let v = client.restore("ex", "wrong header\n").unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_snapshot"));

    // Diagnosis after all the garbage: still identical to before.
    let after = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&after), "{after:?}");
    assert_eq!(field_u64(&after, "digest"), field_u64(&baseline, "digest"));
    stop(server, &mut client);
}

#[test]
fn racing_clients_on_one_namespace_agree_bit_for_bit() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let addr = server.local_addr();
    let n_clients = 4;
    let per_client = 2;
    let barrier = Arc::new(Barrier::new(n_clients));
    let handles: Vec<_> = (0..n_clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                (0..per_client)
                    .map(|_| {
                        let v = c.diagnose("ex", "greedy", None).unwrap();
                        assert!(is_ok(&v), "{v:?}");
                        field_u64(&v, "digest").unwrap()
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let digests: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(digests.len(), n_clients * per_client);
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "racing clients saw different explanations: {digests:?}"
    );
    let stats = client.stats(Some("ex")).unwrap();
    assert_eq!(
        field_u64(&stats, "diagnoses"),
        Some((n_clients * per_client) as u64)
    );
    assert!(field_u64(&stats, "cache_entries").unwrap() > 0);
    stop(server, &mut client);
}

#[test]
fn diagnose_replies_and_stats_carry_lint_counters() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let v = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&v), "{v:?}");
    // The bundled scenarios register with the default `Lint::Report`
    // config, so every reply carries the analyzed lint block.
    assert_eq!(v.get("lint_analyzed").and_then(|b| b.as_bool()), Some(true));
    for field in [
        "lint_errors",
        "lint_warnings",
        "lint_pruned",
        "lint_subsumed",
        "lint_unreachable",
        "lint_commuting_pairs",
    ] {
        assert!(field_u64(&v, field).is_some(), "missing {field}: {v:?}");
    }
    // Report mode never prunes or subsumes — it only reports.
    assert_eq!(field_u64(&v, "lint_pruned"), Some(0));
    assert_eq!(field_u64(&v, "lint_subsumed"), Some(0));
    let pairs = field_u64(&v, "lint_commuting_pairs").unwrap();

    // Per-namespace stats accumulate the same totals across runs.
    let v2 = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&v2));
    let stats = client.stats(Some("ex")).unwrap();
    assert_eq!(field_u64(&stats, "lint_pruned_total"), Some(0));
    assert_eq!(field_u64(&stats, "lint_subsumed_total"), Some(0));
    assert_eq!(
        field_u64(&stats, "lint_commuting_pairs_total"),
        Some(2 * pairs),
        "two identical diagnoses fold in twice: {stats:?}"
    );
    stop(server, &mut client);
}

#[test]
fn admission_control_sheds_load_with_typed_busy_errors() {
    let server = Server::start(ServeConfig {
        max_inflight: 1,
        max_queue: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // A non-trivial scenario so diagnoses overlap for real.
    assert!(is_ok(
        &client.register("card", "cardio", None, None).unwrap()
    ));

    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                let v = c.diagnose("card", "greedy", None).unwrap();
                match v.get("ok").and_then(|b| b.as_bool()) {
                    Some(true) => ("ok", field_u64(&v, "digest")),
                    Some(false) => {
                        let code = v.get("code").and_then(|c| c.as_str()).unwrap().to_string();
                        assert_eq!(code, "busy", "only busy is acceptable: {v:?}");
                        ("busy", None)
                    }
                    None => panic!("untyped response: {v:?}"),
                }
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let oks: Vec<u64> = outcomes.iter().filter_map(|(_, d)| *d).collect();
    let busy = outcomes.iter().filter(|(s, _)| *s == "busy").count();
    assert!(!oks.is_empty(), "at least one diagnosis must get through");
    assert!(
        oks.windows(2).all(|w| w[0] == w[1]),
        "admitted diagnoses must still agree: {oks:?}"
    );
    let stats = client.stats(None).unwrap();
    assert_eq!(field_u64(&stats, "busy_rejections"), Some(busy as u64));
    assert_eq!(field_u64(&stats, "diagnoses_ok"), Some(oks.len() as u64));
    stop(server, &mut client);
}

#[test]
fn shutdown_flushes_snapshots_a_new_server_reloads() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve_snap_{}", std::process::id()));
    let config = ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let server = Server::start(config.clone()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let cold = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&cold), "{cold:?}");
    let bye = client.shutdown().unwrap();
    assert!(is_ok(&bye), "{bye:?}");
    assert!(field_u64(&bye, "snapshots_flushed").unwrap() >= 1);
    server.join();
    assert!(dir.join("ex.dpcache").is_file(), "flushed snapshot file");

    // A new server process over the same snapshot dir: registering
    // the same name reloads the namespace, and the first diagnosis
    // is warm and bit-identical.
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reg = client.register("ex", "example1", None, None).unwrap();
    assert!(is_ok(&reg), "{reg:?}");
    assert!(
        field_u64(&reg, "snapshot_entries_reloaded").unwrap() > 0,
        "{reg:?}"
    );
    let warm = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(field_u64(&warm, "digest"), field_u64(&cold, "digest"));
    assert!(field_u64(&warm, "warm_hits").unwrap() > 0);
    stop(server, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_server_rejects_new_work_with_a_typed_error() {
    let (server, mut client) = start_default();
    let mut other = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(&client.shutdown().unwrap()));
    // The racing second connection either gets a typed
    // `shutting_down` error or a clean close — never a hang or a
    // protocol violation.
    match other.request("{\"op\":\"register\",\"system\":\"x\",\"scenario\":\"example1\"}") {
        Ok(v) => assert_eq!(error_code(&v).as_deref(), Some("shutting_down")),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected failure mode: {e:?}"
        ),
    }
    server.join();
}

#[test]
fn ingest_with_an_unparsable_numeric_cell_is_a_bad_batch_that_appends_nothing() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    assert!(is_ok(&client.watch("ex", None, None).unwrap()));
    let d_pass = build_scenario("example1", None, None).unwrap().d_pass;
    let mut csv = Vec::new();
    write_csv(&d_pass, &mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let good = client.ingest("ex", &csv).unwrap();
    assert!(is_ok(&good), "{good:?}");
    let rows = field_u64(&good, "rows_total").unwrap();
    assert_eq!(rows, d_pass.n_rows() as u64);

    // The same first record with its Int cell garbled.
    let age = d_pass
        .columns()
        .iter()
        .position(|c| c.name() == "age")
        .unwrap();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let record = lines.next().unwrap();
    assert!(!record.contains('"'), "plain fields split on commas");
    let mut cells: Vec<&str> = record.split(',').collect();
    cells[age] = "4O";
    let bad = client
        .ingest("ex", &format!("{header}\n{}\n", cells.join(",")))
        .unwrap();
    assert_eq!(error_code(&bad).as_deref(), Some("bad_batch"), "{bad:?}");
    let detail = bad.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(
        detail.contains("line 2") && detail.contains("\"age\""),
        "{bad:?}"
    );

    // Nothing was appended: neither the watcher nor the totals moved.
    let stats = client.stats(Some("ex")).unwrap();
    assert_eq!(field_u64(&stats, "rows_ingested_total"), Some(rows));
    assert_eq!(field_u64(&stats, "batches_ingested_total"), Some(1));
    let again = client.ingest("ex", &csv).unwrap();
    assert_eq!(field_u64(&again, "rows_total"), Some(2 * rows), "{again:?}");
    stop(server, &mut client);
}

#[test]
fn multi_mib_request_sent_in_small_writes_gets_its_reply() {
    let server = Server::start(ServeConfig {
        budget_bytes: 64 << 20,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let mut cache = ScoreCache::new();
    let entries = 110_000u64;
    for i in 0..entries {
        cache.insert(
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            i as f64 / entries as f64,
        );
    }
    let line = format!(
        "{{\"op\":\"restore\",\"system\":\"ex\",\"snapshot\":{}}}\n",
        json_escape(&cache.to_snapshot())
    );
    assert!(line.len() > 4 << 20, "{} bytes", line.len());

    // One request line trickled in 4 KiB writes: the daemon must
    // reassemble and parse it in time linear in its length.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    for piece in line.as_bytes().chunks(4096) {
        raw.write_all(piece).unwrap();
    }
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).unwrap();
    let v = JsonValue::parse(reply.trim_end()).unwrap();
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(field_u64(&v, "new_cache_entries"), Some(entries));
    assert!(field_u64(&v, "cache_entries").unwrap() >= entries, "{v:?}");
    stop(server, &mut client);
}

#[test]
fn server_wide_stats_report_the_host_sized_diagnosis_width() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    for max_inflight in [1usize, 2, 1024] {
        let server = Server::start(ServeConfig {
            max_inflight,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let stats = client.stats(None).unwrap();
        assert_eq!(
            field_u64(&stats, "diagnosis_width"),
            Some((cores / max_inflight as u64).max(1)),
            "{stats:?}"
        );
        stop(server, &mut client);
    }
}
