//! `asm serve` at its descriptor limit: once every descriptor is taken,
//! further connections wait in the listen queue without the poll thread
//! spinning on the listener's readiness, and they are served as soon as
//! descriptors free up.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Connections opened against a server limited to 48 descriptors: about
/// 40 are accepted, the rest wait in the kernel's listen queue.
const CLIENTS: usize = 96;

/// Kills the server when the test ends, whether it passed or not.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU time of process `pid`, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // The fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect("stat line")
        .1
        .split_whitespace()
        .collect();
    let field = |i: usize| fields[i - 3].parse::<u64>().expect("tick count");
    field(14) + field(15)
}

#[test]
fn a_server_at_its_descriptor_limit_idles_and_serves_queued_connections() {
    let child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 48 && exec "$0" serve --addr 127.0.0.1:0 --threads 1"#)
        .arg(env!("CARGO_BIN_EXE_asm"))
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn asm serve");
    let mut serve = Serve(child);
    let pid = serve.0.id();
    let mut stdout = BufReader::new(serve.0.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read banner");
    let addr = line
        .split_once("listening on http://")
        .and_then(|(_, rest)| rest.split_once(' '))
        .map(|(addr, _)| addr.to_string())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let mut conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|i| TcpStream::connect(&addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // Let the server accept what it can and hit the limit.
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(2));
    let burned = cpu_ticks(pid) - before;
    assert!(
        burned < 50,
        "the server burned {burned} ticks of CPU in 2 s at its descriptor limit"
    );

    // Free the descriptors; the last connection, still queued, is served.
    let mut last = conns.pop().expect("one connection");
    drop(conns);
    last.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    last.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut reply = Vec::new();
    last.read_to_end(&mut reply).expect("read reply");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got {reply:?}");
}
