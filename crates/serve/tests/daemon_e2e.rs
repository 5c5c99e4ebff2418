//! End-to-end daemon test: a real socket, JSON-lines requests, replies
//! parsed back. TCP on `127.0.0.1:0` (OS-assigned port) and, on unix
//! platforms, a unix socket path — the two flavors `--listen` accepts.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use cws_obs::json::{parse, Value};
use cws_platform::Platform;
use cws_serve::{Daemon, ServeCore, ServeOptions};

fn demo_submit(tenant: &str, time: f64) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"time\":{time},\"workflow\":{{\"name\":\"demo\",\"tasks\":[\
         {{\"id\":\"prep\",\"runtime_s\":120}},\
         {{\"id\":\"run\",\"runtime_s\":300,\"deps\":[{{\"task\":\"prep\",\"data_mb\":10}}]}},\
         {{\"id\":\"pack\",\"runtime_s\":60,\"deps\":[\"run\"]}}]}}}}"
    )
}

fn roundtrip<S: std::io::Read + Write>(stream: &mut BufReader<S>, line: &str) -> Value {
    let out = stream.get_mut();
    out.write_all(line.as_bytes()).expect("send");
    out.write_all(b"\n").expect("send newline");
    out.flush().expect("flush");
    let mut reply = String::new();
    stream.read_line(&mut reply).expect("read reply");
    parse(reply.trim()).unwrap_or_else(|e| panic!("reply not JSON ({e}): {reply:?}"))
}

fn ok(v: &Value) -> bool {
    v.get("ok") == Some(&Value::Bool(true))
}

#[test]
fn tcp_session_submits_reports_and_shuts_down() {
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = daemon.local_addr().to_string();
    let platform = Platform::ec2_paper();
    let server = thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core).expect("daemon run");
        core
    });

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut conn = BufReader::new(stream);

    // Two submissions for one tenant, one for another.
    let first = roundtrip(&mut conn, &demo_submit("astro", 0.0));
    assert!(ok(&first), "{first:?}");
    assert_eq!(first.get("tenant").and_then(Value::as_str), Some("astro"));
    assert_eq!(first.get("cold_rentals").and_then(Value::as_u64), Some(1));
    let makespan = first
        .get("makespan_s")
        .and_then(Value::as_f64)
        .expect("makespan");
    assert!(makespan >= 480.0, "3 chained tasks take at least their sum");

    let second = roundtrip(&mut conn, &demo_submit("astro", 700.0));
    assert!(ok(&second), "{second:?}");
    assert_eq!(
        second.get("pool_hits").and_then(Value::as_u64),
        Some(1),
        "the warm machine from the first submission must be claimed"
    );
    let third = roundtrip(&mut conn, &demo_submit("climate", 800.0));
    assert!(ok(&third));

    // Malformed line → structured error, connection stays usable.
    let err = roundtrip(&mut conn, "{\"tenant\":42}");
    assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
    assert!(err.get("error").and_then(Value::as_str).is_some());

    // Mid-run report: three workflows, two tenants.
    let report = roundtrip(&mut conn, "{\"cmd\":\"report\"}");
    assert!(ok(&report), "{report:?}");
    let fleet = report
        .get("report")
        .and_then(|r| r.get("fleet"))
        .expect("fleet");
    assert_eq!(fleet.get("workflows").and_then(Value::as_u64), Some(3));

    // Shutdown settles every machine: final cost is positive.
    let last = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&last), "{last:?}");
    let fleet = last
        .get("report")
        .and_then(|r| r.get("fleet"))
        .expect("fleet");
    assert!(fleet.get("vms").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert!(fleet.get("cost_usd").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);

    let core = server.join().expect("daemon thread");
    assert_eq!(core.clock(), 800.0, "clock ends at the last admission");
}

#[cfg(unix)]
#[test]
fn unix_socket_flavor_works() {
    let path = std::env::temp_dir().join(format!("cws-serve-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = path.to_str().expect("utf8 temp path").to_string();
    assert!(addr.contains('/'), "unix flavor is chosen by the slash");

    let daemon = Daemon::bind(&addr).expect("bind unix socket");
    let platform = Platform::ec2_paper();
    let server = thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core).expect("daemon run");
    });

    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let mut conn = BufReader::new(stream);
    let reply = roundtrip(&mut conn, &demo_submit("astro", 0.0));
    assert!(ok(&reply), "{reply:?}");
    let last = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&last));
    server.join().expect("daemon thread");
    let _ = std::fs::remove_file(&path);
}

/// Queue a client that sends `payload` and hangs up on the daemon's
/// backlog before it starts, so every reply to that client fails; then
/// a new connection must still be served through `shutdown`.
#[cfg(unix)]
fn survives(tag: &str, payload: &[u8]) {
    use std::os::unix::net::UnixStream;
    let path =
        std::env::temp_dir().join(format!("cws-serve-e2e-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let daemon = Daemon::bind(path.to_str().expect("utf8 temp path")).expect("bind unix socket");
    let mut bad = UnixStream::connect(&path).expect("connect");
    bad.write_all(payload).expect("send payload");
    drop(bad);
    let platform = Platform::ec2_paper();
    let server = thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core)
    });
    let stream = UnixStream::connect(&path).expect("daemon still accepts");
    let mut conn = BufReader::new(stream);
    let reply = roundtrip(&mut conn, &demo_submit("astro", 0.0));
    assert!(ok(&reply), "{reply:?}");
    let last = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&last), "{last:?}");
    server
        .join()
        .expect("daemon thread")
        .expect("a bad client must not end the daemon");
    let _ = std::fs::remove_file(&path);
}

#[cfg(unix)]
#[test]
fn non_utf8_client_does_not_kill_the_daemon() {
    survives("utf8", b"\xff\xfe{\"cmd\":\"report\"}\n");
}

#[cfg(unix)]
#[test]
fn client_closing_before_its_replies_does_not_kill_the_daemon() {
    survives("pipe", "{\"cmd\":\"report\"}\n".repeat(50).as_bytes());
}

#[cfg(unix)]
#[test]
fn over_long_line_is_refused_and_only_its_connection_dropped() {
    use cws_serve::daemon::MAX_LINE;
    use std::os::unix::net::UnixStream;
    let path = std::env::temp_dir().join(format!("cws-serve-e2e-long-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let daemon = Daemon::bind(path.to_str().expect("utf8 temp path")).expect("bind unix socket");
    let platform = Platform::ec2_paper();
    let server = thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core)
    });

    // One byte past the cap, and no newline anywhere.
    let mut long = UnixStream::connect(&path).expect("connect");
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_LINE + 1;
    while left > 0 {
        let n = left.min(chunk.len() as u64) as usize;
        long.write_all(&chunk[..n]).expect("send");
        left -= n as u64;
    }
    let mut reply = String::new();
    BufReader::new(&long)
        .read_line(&mut reply)
        .expect("read reply");
    let v = parse(reply.trim()).unwrap_or_else(|e| panic!("reply not JSON ({e}): {reply:?}"));
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{reply}");
    assert!(v.get("error").and_then(Value::as_str).is_some(), "{reply}");
    drop(long);

    let stream = UnixStream::connect(&path).expect("daemon still accepts");
    let mut conn = BufReader::new(stream);
    let last = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&last), "{last:?}");
    server
        .join()
        .expect("daemon thread")
        .expect("an over-long line must not end the daemon");
    let _ = std::fs::remove_file(&path);
}
