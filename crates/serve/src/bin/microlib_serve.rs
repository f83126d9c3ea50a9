//! The `microlib-serve` daemon binary: campaign-as-a-service over the
//! artifact store (see the `microlib_serve` crate docs).
//!
//! ```text
//! microlib-serve [--addr HOST:PORT] [--threads N] [--queue-cap N]
//!                [--cache-dir DIR | --no-cache] [--resident-mb MB]
//! ```
//!
//! Environment: `MICROLIB_SERVE_RESIDENT_MB` caps resident warm-state
//! bytes (same as `--resident-mb`; the flag wins), and the lease, fault
//! and disk-cap knobs of [`microlib::Settings`] apply. A malformed
//! `MICROLIB_*` value exits 2. SIGTERM/SIGINT drain gracefully: in-flight
//! cells finish, the memo journal is fsynced, leases are released, then
//! the process exits 0.

use microlib::{CacheDir, Settings};
use microlib_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Registers SIGTERM/SIGINT handlers that flip [`DRAIN`]. The handler
/// body is a single atomic store — async-signal-safe. `signal(2)` is the
/// one foreign call in the workspace, hence the targeted lint override.
#[allow(unsafe_code)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: microlib-serve [--addr HOST:PORT] [--threads N] [--queue-cap N]\n\
         \x20                     [--cache-dir DIR | --no-cache] [--resident-mb MB]"
    );
    std::process::exit(2);
}

fn main() {
    let mut settings = Settings::from_env().unwrap_or_else(|e| {
        eprintln!("microlib-serve: {e}");
        std::process::exit(2)
    });
    let mut config = ServerConfig {
        cache_dir: Some(PathBuf::from(".microlib-cache")),
        resident_cap_bytes: settings.serve_resident_mb.map(|mib| mib << 20),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_for(flag));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--threads" => config.threads = parse_or_usage(&value("--threads")),
            "--queue-cap" => config.queue_cap = parse_or_usage(&value("--queue-cap")),
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--no-cache" => config.cache_dir = None,
            "--resident-mb" => {
                config.resident_cap_bytes =
                    Some(parse_or_usage::<u64>(&value("--resident-mb")) << 20);
            }
            _ => usage(),
        }
    }
    settings.threads = config.threads;
    settings.cache_dir = config.cache_dir.clone().map_or(CacheDir::Off, CacheDir::At);
    eprintln!(
        "microlib-serve: settings: {settings} queue-cap={} resident-mb={}",
        config.queue_cap,
        config
            .resident_cap_bytes
            .map_or("unbounded".to_owned(), |b| (b >> 20).to_string())
    );
    if let Err(e) = microlib::fault::arm_from(&settings) {
        eprintln!("microlib-serve: {e}");
        std::process::exit(2);
    }
    install_signal_handlers();
    let mut server = match Server::start_with_settings(config, &settings) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("microlib-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("microlib-serve: listening on {}", server.addr());
    while !DRAIN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("microlib-serve: draining (finishing in-flight cells)");
    server.shutdown();
    eprintln!("microlib-serve: drained clean");
}

fn usage_for(flag: &str) -> String {
    eprintln!("microlib-serve: {flag} needs a value");
    usage();
}

fn parse_or_usage<T: std::str::FromStr>(value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage())
}
