//! The daemon load client: replays request lines over one unix-socket
//! connection to `cws-exp serve --listen`, either closed loop (at most
//! `--window` requests in flight; the next one goes out as a reply
//! comes back) or open loop at a fixed rate, where
//! each latency is timed from when the request was *due*, not from when
//! it was sent — so a daemon that falls behind shows its backlog. Then
//! it sends `shutdown` and stores the final report reply.
//!
//! The open loop runs on one thread over a non-blocking socket, so the
//! client never sleeps through a due time (sleeps overshoot by
//! milliseconds on a busy machine): it queues every request whose due
//! time has passed, writes what the socket takes and stamps replies as
//! they arrive. How late the client itself queued each request is
//! reported as its lateness; a rate at which the client fell behind
//! measures the client, not the daemon.

use crate::{fail, print_metrics, Flags};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Give up when no reply arrives for this long.
const STALL: Duration = Duration::from_secs(10);

/// Tally of one replay.
struct Tally {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    errors: usize,
    timed_out: bool,
    wall_s: f64,
}

fn is_ok(reply: &[u8]) -> bool {
    reply.starts_with(b"{\"ok\":true")
}

fn closed(stream: &mut UnixStream, lines: &[&str], window: usize) -> Tally {
    stream
        .set_read_timeout(Some(STALL))
        .and_then(|()| stream.set_write_timeout(Some(STALL)))
        .unwrap_or_else(|e| fail(&format!("socket timeout: {e}")));
    let mut reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| fail(&e.to_string())));
    let mut tally = Tally {
        latency_us: Vec::with_capacity(lines.len()),
        late_us: Vec::new(),
        errors: 0,
        timed_out: false,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut sent_at = std::collections::VecDeque::with_capacity(window);
    let mut next = 0;
    let mut reply = String::new();
    while tally.latency_us.len() < lines.len() {
        while next < lines.len() && sent_at.len() < window.max(1) {
            sent_at.push_back(Instant::now());
            let line = lines[next];
            if stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                tally.timed_out = true;
                break;
            }
            next += 1;
        }
        reply.clear();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {
                let t = sent_at.pop_front().unwrap_or(start);
                tally.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
                if !is_ok(reply.as_bytes()) {
                    tally.errors += 1;
                }
            }
            _ => {
                tally.timed_out = true;
                break;
            }
        }
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    tally
}

fn open(stream: &mut UnixStream, lines: &[&str], rate: f64) -> Tally {
    stream
        .set_nonblocking(true)
        .unwrap_or_else(|e| fail(&format!("non-blocking socket: {e}")));
    let n = lines.len();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + interval.mul_f64(i as f64);
    let mut tally = Tally {
        latency_us: Vec::with_capacity(n),
        late_us: Vec::with_capacity(n),
        errors: 0,
        timed_out: false,
        wall_s: 0.0,
    };
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut queued = 0;
    let mut last_progress = Instant::now();
    while tally.latency_us.len() < n {
        let now = Instant::now();
        while queued < n && due(queued) <= now {
            tally.late_us.push((now - due(queued)).as_secs_f64() * 1e6);
            out.extend_from_slice(lines[queued].as_bytes());
            out.push(b'\n');
            queued += 1;
        }
        if out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(k) => out_pos += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => {
                    tally.timed_out = true;
                    break;
                }
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                tally.timed_out = true;
                break;
            }
            Ok(k) => {
                let at = Instant::now();
                last_progress = at;
                inbuf.extend_from_slice(&chunk[..k]);
                while let Some(nl) = inbuf.iter().position(|&b| b == b'\n') {
                    if !is_ok(&inbuf[..nl]) {
                        tally.errors += 1;
                    }
                    let i = tally.latency_us.len();
                    tally
                        .latency_us
                        .push(at.saturating_duration_since(due(i)).as_secs_f64() * 1e6);
                    inbuf.drain(..=nl);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if queued > tally.latency_us.len() && last_progress.elapsed() > STALL {
                    tally.timed_out = true;
                    break;
                }
                std::hint::spin_loop();
            }
            Err(_) => {
                tally.timed_out = true;
                break;
            }
        }
    }
    tally.wall_s = (Instant::now() - start).as_secs_f64();
    stream
        .set_nonblocking(false)
        .unwrap_or_else(|e| fail(&format!("blocking socket: {e}")));
    tally
}

/// The `q`-quantile of an ascending slice (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `client`: replay `--requests` over `--sock`, then shut the daemon
/// down and write its final reply to `--final`. Prints one JSON line.
pub fn run(flags: &Flags) {
    let src = std::fs::read_to_string(flags.str("requests"))
        .unwrap_or_else(|e| fail(&format!("read requests: {e}")));
    let lines: Vec<&str> = src.lines().collect();
    let mut stream = match UnixStream::connect(flags.str("sock")) {
        Ok(s) => s,
        Err(e) => {
            println!("{{\"refused\":1}}");
            fail(&format!("connect: {e}"));
        }
    };
    let tally = if flags.has("window") {
        closed(&mut stream, &lines, flags.num("window"))
    } else {
        open(&mut stream, &lines, flags.num("rate"))
    };

    let mut final_reply = String::new();
    let shut = stream
        .set_read_timeout(Some(STALL))
        .and_then(|()| stream.write_all(b"{\"cmd\":\"shutdown\"}\n"))
        .and_then(|()| BufReader::new(&stream).read_line(&mut final_reply));
    if shut.is_err() || !is_ok(final_reply.as_bytes()) {
        final_reply.clear();
    }
    std::fs::write(flags.str("final"), &final_reply)
        .unwrap_or_else(|e| fail(&format!("write final reply: {e}")));

    let mut lat = tally.latency_us.clone();
    lat.sort_by(f64::total_cmp);
    let mut late = tally.late_us.clone();
    late.sort_by(f64::total_cmp);
    // Median latency of the last quarter: far above the overall median
    // when a backlog grew during the run.
    let mut tail = tally.latency_us[tally.latency_us.len() * 3 / 4..].to_vec();
    tail.sort_by(f64::total_cmp);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    m.insert("sent".into(), lines.len() as f64);
    m.insert("replied".into(), tally.latency_us.len() as f64);
    m.insert("errors".into(), tally.errors as f64);
    m.insert("timed_out".into(), f64::from(u8::from(tally.timed_out)));
    m.insert("wall_s".into(), tally.wall_s);
    m.insert("p50_us".into(), quantile(&lat, 0.50));
    m.insert("p99_us".into(), quantile(&lat, 0.99));
    m.insert("late_p50_us".into(), quantile(&late, 0.50));
    m.insert("late_p99_us".into(), quantile(&late, 0.99));
    m.insert("tail_p50_us".into(), quantile(&tail, 0.50));
    m.insert(
        "achieved_rps".into(),
        tally.latency_us.len() as f64 / tally.wall_s.max(1e-9),
    );
    print_metrics(&m);
}
