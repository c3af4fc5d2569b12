//! `TcpTransport` owns its threads: one accept thread per hosted node, none
//! per connection, and dropping it stops them. One test, in a process of
//! its own, because it counts the process's threads.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use lhrs_net::transport::{HostEvent, TcpTransport, Transport};
use lhrs_sim::NodeId;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Wait until the process is back to `count` threads: a thread that has
/// let go of the shutdown latch still takes a moment to exit.
fn settle(count: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while threads() != count {
        assert!(
            Instant::now() < deadline,
            "{} threads where {count} were expected",
            threads()
        );
        std::thread::yield_now();
    }
}

/// A transport hosting `node` at `addr`.
fn start(node: u32, addr: &str, peers: HashMap<u32, String>) -> TcpTransport {
    TcpTransport::start(&[(node, addr.to_string())], peers, channel().0).expect("bind")
}

/// Two free localhost ports: reserved together, released for the
/// transports to bind.
fn two_addrs() -> [String; 2] {
    let held = [(); 2].map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve a port"));
    held.map(|l| l.local_addr().expect("reserved").to_string())
}

#[test]
fn started_and_dropped_transports_leave_no_thread() {
    let before = threads();
    for round in 0..20 {
        settle(before);
        let [server_addr, client_addr] = two_addrs();
        let mut server = start(7, &server_addr, HashMap::new());
        let mut client = start(8, &client_addr, HashMap::from([(7, server_addr)]));
        assert_eq!(threads(), before + 2, "round {round}: two accept threads");
        // A delivered frame: the server's host thread read the client's
        // connection itself.
        client.send_registry_pull(NodeId(8), NodeId(7));
        client.flush();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut events = Vec::new();
        while events.is_empty() {
            assert!(Instant::now() < deadline, "round {round}: nothing arrived");
            assert!(server.wait(Duration::from_millis(100), &mut events));
        }
        assert!(
            matches!(events[..], [HostEvent::RegistryPull { from }] if from == NodeId(8)),
            "round {round}: {events:?}"
        );
        assert_eq!(
            threads(),
            before + 2,
            "round {round}: the connection added none"
        );
        // Server first: the client's connection to it is still open.
        drop(server);
        drop(client);
    }
    settle(before);
}
