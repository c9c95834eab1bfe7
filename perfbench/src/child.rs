//! The server under test, in a process of its own.
//!
//! The benchmark binary re-executes itself with `--serve`: the child binds
//! `gf_server` with the default [`ServerConfig`] on an ephemeral loopback
//! port, prints the address, and serves until killed — or until its stdin
//! closes, so a benchmark that dies never leaves a server behind. Each
//! byte the benchmark writes to its stdin is answered with one line on its
//! stdout: `c` with the child's own CPU time so far
//! ([`sys::process_cpu_s`]), `u` with a reference reading taken on the
//! child's CPU ([`calib::Reference::reading_s`]).
//!
//! On a host with two or more CPUs, [`place`] gives the server child one
//! CPU and the benchmark process another: the load generator never takes
//! CPU time from the server, and a reference reading taken in the child
//! runs on the core whose speed the server's CPU time reflects.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::OnceLock;

use gf_server::{Server, ServerConfig};

use crate::{calib, sys};

/// The CPU server children are pinned to, once [`place`] has run.
static SERVER_CPU: OnceLock<Option<usize>> = OnceLock::new();

/// Splits the allowed CPUs: pins the calling (benchmark) thread to the
/// second and reserves the first for server children. Leaves everything
/// unpinned on a one-CPU host. Call before starting any thread or child.
pub fn place() {
    SERVER_CPU.get_or_init(|| match sys::allowed_cpus()[..] {
        [server, bench, ..] if sys::pin_to(bench) => Some(server),
        _ => None,
    });
}

/// Scheduling-priority drop of the server child. Where client and server
/// share a core (a one-CPU host, where [`place`] pins nothing), favouring
/// the generator keeps its sends on schedule; latency is still taken from
/// due times, so a slow server shows.
const SERVER_NICENESS: i32 = 10;

/// Body of the `--serve` child: never returns.
pub fn serve() -> ! {
    if let Some(cpu) = std::env::args().nth(2).and_then(|a| a.parse().ok()) {
        sys::pin_to(cpu);
    }
    sys::lower_priority(SERVER_NICENESS);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind the server under test");
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{}", server.local_addr()).expect("announce the address");
    stdout.flush().expect("announce the address");
    std::thread::spawn(move || {
        let mut reference = calib::Reference::new();
        let mut asked = [0u8; 1];
        while std::io::stdin().read(&mut asked).is_ok_and(|n| n > 0) {
            let answer = match asked[0] {
                b'u' => reference.reading_s(),
                _ => sys::process_cpu_s(),
            };
            if writeln!(stdout, "{answer}")
                .and_then(|()| stdout.flush())
                .is_err()
            {
                break;
            }
        }
        std::process::exit(0);
    });
    server.run();
    std::process::exit(0);
}

/// A running server child.
pub struct ServerProcess {
    child: Option<Child>,
    /// The child's stdin and stdout: the CPU-time question and answers.
    ask: ChildStdin,
    answers: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts a server child and waits for its address.
    pub fn spawn() -> std::io::Result<ServerProcess> {
        let mut command = Command::new(std::env::current_exe()?);
        command.arg("--serve");
        if let Some(Some(cpu)) = SERVER_CPU.get() {
            command.arg(cpu.to_string());
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let ask = child.stdin.take().expect("piped stdin");
        let answers = BufReader::new(child.stdout.take().expect("piped stdout"));
        // Owned from here on, so an early return still kills the child.
        let mut process = ServerProcess {
            child: Some(child),
            ask,
            answers,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        process.answers.read_line(&mut line)?;
        process.addr = line.trim().parse().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("server child announced {line:?}"),
            )
        })?;
        Ok(process)
    }

    /// The child's CPU time so far, in seconds: every thread of the
    /// server, user + system.
    pub fn cpu_s(&mut self) -> Result<f64, String> {
        self.ask(b'c')
    }

    /// A reference reading taken in the child, on the server's CPU, in
    /// seconds. Its CPU time is the child's too: take it outside a
    /// measured window.
    pub fn reading_s(&mut self) -> Result<f64, String> {
        self.ask(b'u')
    }

    fn ask(&mut self, question: u8) -> Result<f64, String> {
        let mut line = String::new();
        self.ask
            .write_all(&[question])
            .and_then(|()| self.ask.flush())
            .and_then(|()| self.answers.read_line(&mut line))
            .map_err(|e| format!("ask the server child: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("server child answered {line:?}"))
    }

    /// Kills the child, waits for it, and returns its peak resident set
    /// in MiB, read just before the kill.
    pub fn stop(mut self) -> Option<f64> {
        let mut child = self.child.take()?;
        let peak = sys::peak_rss_kb(&child.id().to_string());
        let _ = child.kill();
        child.wait().ok()?;
        peak.map(|kb| kb as f64 / 1024.0)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
