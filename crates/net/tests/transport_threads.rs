//! `TcpTransport` owns its threads: dropping it stops them. One test, in a
//! process of its own, because it counts the process's threads.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use lhrs_net::transport::{HostEvent, TcpTransport, Transport};
use lhrs_sim::NodeId;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// A transport hosting `node` at `addr`.
fn start(
    node: u32,
    addr: &str,
    peers: HashMap<u32, String>,
) -> (TcpTransport, Receiver<HostEvent>) {
    let (tx, rx) = channel();
    let t = TcpTransport::start(&[(node, addr.to_string())], peers, tx).expect("bind");
    (t, rx)
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
        let [server_addr, client_addr] = two_addrs();
        let (server, rx) = start(7, &server_addr, HashMap::new());
        let (mut client, _rx) = start(8, &client_addr, HashMap::from([(7, server_addr)]));
        // A delivered frame: the server has a reader thread for the
        // client's connection besides its accept thread.
        client.send_registry_pull(NodeId(8), NodeId(7));
        client.flush();
        let event = rx.recv_timeout(Duration::from_secs(30));
        assert!(
            matches!(event, Ok(HostEvent::RegistryPull { from }) if from == NodeId(8)),
            "round {round}: {event:?}"
        );
        assert!(threads() >= before + 3, "two accept threads and a reader");
        // Server first: its reader is still blocked on the open connection.
        drop(server);
        drop(client);
    }
    // `shutdown` joins what it stopped; a reader that had already seen EOF
    // exits on its own a moment later.
    let deadline = Instant::now() + Duration::from_secs(30);
    while threads() != before {
        assert!(
            Instant::now() < deadline,
            "{} threads left behind",
            threads().saturating_sub(before)
        );
        std::thread::yield_now();
    }
}
