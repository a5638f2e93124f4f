//! End-to-end daemon tests: wire results must be bit-identical to
//! direct library analysis, backpressure must be an explicit `Busy`,
//! single-flight must collapse duplicate work, and shutdown must drain
//! in-flight requests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use funseeker::{Config, FunSeeker};
use funseeker_client::proto::Source;
use funseeker_client::{Client, ClientError};
use funseeker_server::{Server, ServerConfig};

fn own_exe() -> Vec<u8> {
    std::fs::read("/proc/self/exe").unwrap()
}

/// A distinct-but-parseable variant of an image: trailing padding is
/// outside every ELF-described region, so the analysis is unchanged but
/// the content hash (and thus every cache key) differs.
fn padded(image: &[u8], tag: u64) -> Vec<u8> {
    let mut v = image.to_vec();
    v.extend_from_slice(&tag.to_le_bytes());
    v
}

#[test]
fn wire_results_are_bit_identical_to_direct_analysis() {
    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let image = own_exe();
    let prepared = funseeker::prepare(&image).unwrap();
    for (id, config) in
        [(1u8, Config::c1()), (2, Config::c2()), (3, Config::c3()), (4, Config::c4())]
    {
        let reply = client.analyze_with(&image, id, false).unwrap();
        let direct = FunSeeker::with_config(config).identify_prepared(&prepared);
        assert_eq!(reply.analysis, direct, "config {id}");
    }
    // The call-graph flag is part of the key: it computes separately and
    // carries the interprocedural summary.
    let reply = client.analyze_with(&image, 4, true).unwrap();
    let mut config = Config::c4();
    config.interproc = true;
    let direct = FunSeeker::with_config(config).identify_prepared(&prepared);
    assert_eq!(reply.analysis, direct);
    assert!(reply.analysis.interproc.is_some());
    server.join();
}

#[test]
fn connection_cap_refuses_with_busy_not_a_hang() {
    use funseeker_client::proto;
    let mut config = ServerConfig::tcp("127.0.0.1:0");
    config.max_connections = 1;
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();
    let mut first = Client::connect(&addr).unwrap();
    first.ping().unwrap();
    // The second connection is accepted only to be told Busy (an
    // unsolicited frame, per the spec) and closed; read it raw.
    let hostport = addr.strip_prefix("tcp:").unwrap();
    let mut second = std::net::TcpStream::connect(hostport).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let payload = proto::read_frame(&mut second, proto::DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("an immediate Busy frame");
    match proto::decode_response(&payload).unwrap() {
        funseeker_client::Response::Busy { .. } => {}
        other => panic!("expected Busy from the connection cap, got {other:?}"),
    }
    assert!(
        proto::read_frame(&mut second, proto::DEFAULT_MAX_FRAME).unwrap().is_none(),
        "refused connection is closed after the Busy frame"
    );
    drop(first);
    server.join();
}

#[test]
fn saturated_analyze_slots_refuse_with_busy() {
    let mut config = ServerConfig::tcp("127.0.0.1:0");
    config.analyze_slots = 1;
    config.queue_cap = 0;
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();
    let image = own_exe();

    // Background load: continuously submit fresh distinct images so the
    // single analyze slot stays occupied.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let saw_busy = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (addr, image, stop) = (&addr, &image, &stop);
        for worker in 0..2u64 {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut tag = worker.wrapping_mul(1 << 32);
                while !stop.load(Ordering::Relaxed) {
                    tag += 1;
                    match client.analyze(&padded(image, tag)) {
                        Ok(_) | Err(ClientError::Busy { .. }) => {}
                        Err(other) => panic!("unexpected error under load: {other}"),
                    }
                }
            });
        }
        // Probe with distinct images until one is refused at the gate.
        let mut client = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut tag = u64::MAX;
        while saw_busy.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "never observed Busy under saturated slots");
            tag -= 1;
            if let Err(e) = client.analyze(&padded(image, tag)) {
                assert!(e.is_busy(), "only Busy is acceptable here: {e}");
                saw_busy.fetch_add(1, Ordering::Relaxed);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.get("busy_total").unwrap() >= 1);
    server.join();
}

#[test]
fn concurrent_identical_submissions_compute_once() {
    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let addr = server.addr().to_string();
    let image = padded(&own_exe(), 0x51f7);
    let direct = FunSeeker::new().identify(&image).unwrap();

    const CLIENTS: usize = 16;
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = Client::connect(&addr).unwrap();
                start.wait();
                let reply = client.analyze(&image).unwrap();
                assert_eq!(reply.analysis, direct);
                assert!(matches!(reply.source, Source::Computed | Source::Shared | Source::Memory));
            });
        }
    });
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("images_analyzed"),
        Some(1),
        "sixteen identical submissions must cost one analysis"
    );
    server.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let addr = server.addr().to_string();
    let image = padded(&own_exe(), 0xd4a1);

    std::thread::scope(|s| {
        let addr = &addr;
        let handle = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.analyze(&image)
        });
        // Wait until the request is past admission — running in a gate
        // slot or already replied — then initiate shutdown. Work that
        // was admitted must complete, so the submitter sees a result.
        let mut observer = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = observer.stats().unwrap();
            if stats.get("running").unwrap() >= 1 || stats.get("results_total").unwrap() >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "request never reached a gate slot");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        let reply = handle.join().unwrap().expect("admitted work drains to a clean result");
        assert!(!reply.analysis.functions.is_empty());
    });
    server.join();

    // After the drain a fresh connect must fail: nothing is listening.
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn cold_miss_persists_exactly_the_reply_record() {
    use funseeker_client::{proto, Response};
    let dir = std::env::temp_dir().join(format!("funseeker-e2e-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::tcp("127.0.0.1:0");
    config.disk_cache = Some(dir.clone());
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();
    let image = padded(&own_exe(), 0xd15c);

    // Read the RESULT frame raw, to compare its record bytes.
    let mut conn = std::net::TcpStream::connect(addr.strip_prefix("tcp:").unwrap()).unwrap();
    proto::write_analyze(&mut conn, 4, 0, &image).unwrap();
    let payload =
        proto::read_frame(&mut conn, proto::DEFAULT_MAX_FRAME).unwrap().expect("a reply frame");
    let Response::Result(reply) = proto::decode_response(&payload).unwrap() else {
        panic!("expected a result");
    };
    assert!(matches!(reply.source, Source::Computed), "the first submission is a cold miss");
    let record = &payload[23..]; // after the fixed 23-byte RESULT header

    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "fsc"))
        .collect();
    assert_eq!(entries.len(), 1, "one cache entry per miss: {entries:?}");
    assert_eq!(std::fs::read(&entries[0]).unwrap(), record, "disk entry = reply record bytes");
    let stored = funseeker_batch::DiskCache::new(&dir).load(reply.key).expect("entry loads");
    assert_eq!(stored, FunSeeker::new().identify(&image).unwrap());
    drop(conn);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
