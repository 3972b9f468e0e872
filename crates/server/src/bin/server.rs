//! The `sor-server` daemon: campaign-as-a-service over the persistent
//! result store.
//!
//! Flags: `--addr HOST:PORT` bind address (default `127.0.0.1:7878`;
//! use port `0` for an ephemeral port), `--dir DIR` state directory for
//! the job registry, result store and artifacts (default
//! `results/server`), `--workers N` job worker threads (default 2; a
//! value that does not parse exits with status 2 naming the flag and the
//! value).
//!
//! Prints exactly one `sor-server listening on ADDR` line to stdout once
//! the listener is bound (scripts and tests parse it), then serves until
//! a client posts `/shutdown`.

use sor_server::{Server, ServerConfig};
use std::io::Write;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let cfg = ServerConfig {
        addr: arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        dir: arg_value("--dir")
            .unwrap_or_else(|| "results/server".to_string())
            .into(),
        workers: match arg_value("--workers") {
            None => 2,
            Some(v) => v.parse().unwrap_or_else(|e| {
                eprintln!("sor-server: invalid --workers {v:?}: {e}");
                std::process::exit(2);
            }),
        },
    };
    let dir = cfg.dir.clone();
    let handle = match Server::spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("sor-server: could not start: {e}");
            std::process::exit(1);
        }
    };
    println!("sor-server listening on {}", handle.addr());
    // Tests read this line through a pipe; make sure it leaves now.
    let _ = std::io::stdout().flush();
    eprintln!("state directory: {}", dir.display());
    handle.join();
    eprintln!("sor-server: drained and stopped");
}
