//! Multiple concurrent clients: independent images, interleaved pipelined
//! traffic, and convergence — the "clients are autonomous and can be
//! mobile" side of the SDDS contract.

use lhrs_core::{Config, Error, FilterSpec, LhrsFile};
use lhrs_sim::LatencyModel;

fn cfg() -> Config {
    Config {
        group_size: 4,
        initial_k: 2,
        bucket_capacity: 16,
        record_len: 32,
        latency: LatencyModel::default(),
        node_pool: 1024,
        ..Config::default()
    }
}

#[test]
fn many_clients_see_one_consistent_file() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..600u64 {
        file.insert(lhrs_lh::scramble(key), vec![(key % 251) as u8; 16])
            .unwrap();
    }
    let clients: Vec<usize> = (0..5).map(|_| file.add_client()).collect();
    // Every client independently reads a sample; all agree.
    for (i, &c) in clients.iter().enumerate() {
        for key in (i as u64 * 40)..(i as u64 * 40 + 80) {
            let k = lhrs_lh::scramble(key);
            assert_eq!(
                file.lookup_via(c, k).unwrap().unwrap(),
                vec![(key % 251) as u8; 16],
                "client {i} key {key}"
            );
        }
    }
    // Each image converged independently; IAM counts are per client.
    for &c in &clients {
        assert!(file.client_iams(c) > 0, "fresh client must have erred once");
        assert!(file.client_iams(c) < 30, "image failed to converge");
    }
    file.verify_integrity().unwrap();
}

#[test]
fn clients_with_wildly_different_staleness_coexist() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    // Client A warms early (small file), then the file grows 10x, then a
    // brand-new client C appears; both must work, with ≤ 2 hops each.
    for key in 0..100u64 {
        file.insert(lhrs_lh::scramble(key), vec![1u8; 8]).unwrap();
    }
    let a = file.add_client();
    for key in 0..40u64 {
        file.lookup_via(a, lhrs_lh::scramble(key)).unwrap();
    }
    let image_a_before = file.client_image(a);
    for key in 100..1500u64 {
        file.insert(lhrs_lh::scramble(key), vec![1u8; 8]).unwrap();
    }
    let c = file.add_client();
    assert!(
        file.client_image(a) == image_a_before,
        "A idled while the file grew"
    );
    for key in 0..1500u64 {
        let k = lhrs_lh::scramble(key);
        assert_eq!(file.lookup_via(a, k).unwrap().unwrap(), vec![1u8; 8]);
        assert_eq!(file.lookup_via(c, k).unwrap().unwrap(), vec![1u8; 8]);
    }
    // Both images ended within the true file.
    let m = file.bucket_count();
    let (na, ia) = file.client_image(a);
    let (nc, ic) = file.client_image(c);
    assert!(na + (1 << ia) <= m);
    assert!(nc + (1 << ic) <= m);
}

#[test]
fn scans_from_multiple_clients_agree() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..400u64 {
        file.insert(lhrs_lh::scramble(key), vec![7u8; 12]).unwrap();
    }
    let c1 = file.add_client();
    let c2 = file.add_client();
    let h0 = file.scan(FilterSpec::All).unwrap();
    let h1 = file.scan_via(c1, FilterSpec::All).unwrap();
    let h2 = file.scan_via(c2, FilterSpec::All).unwrap();
    assert_eq!(h0, h1);
    assert_eq!(h1, h2);
    assert_eq!(h0.len(), 400);
}

#[test]
fn parallel_load_stores_everything_exactly_once() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    let n = file
        .parallel_load(
            4,
            (0..800u64).map(|k| (lhrs_lh::scramble(k), vec![(k % 251) as u8; 16])),
        )
        .unwrap();
    assert_eq!(n, 800);
    file.verify_integrity().unwrap();
    let report = file.storage_report();
    assert_eq!(report.data_records, 800);
    for k in (0..800u64).step_by(13) {
        assert_eq!(
            file.lookup(lhrs_lh::scramble(k)).unwrap().unwrap(),
            vec![(k % 251) as u8; 16]
        );
    }
    // Duplicates across clients are surfaced, as the lowest op's key.
    assert_eq!(
        file.parallel_load(4, [(lhrs_lh::scramble(3), vec![1u8])]),
        Err(Error::DuplicateKey(lhrs_lh::scramble(3)))
    );
}

/// A load whose duplicates land on several clients reports the key of the
/// lowest op among them, whichever reply came first.
#[test]
fn parallel_load_reports_the_lowest_ops_duplicate() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    let old = |k: u64| lhrs_lh::scramble(k);
    file.parallel_load(2, (0..100u64).map(|k| (old(k), vec![1u8; 8])))
        .unwrap();
    // Ops 1 and 3 (clients 1 and 0) are duplicates; op 1's key is reported.
    let items = [
        (old(1_000), vec![2u8]),
        (old(42), vec![2u8]),
        (old(1_001), vec![2u8]),
        (old(7), vec![2u8]),
    ];
    assert_eq!(
        file.parallel_load(3, items),
        Err(Error::DuplicateKey(old(42)))
    );
    assert_eq!(file.lookup(old(1_000)).unwrap(), Some(vec![2u8]));
    assert_eq!(file.lookup(old(42)).unwrap(), Some(vec![1u8; 8]));
}

#[test]
fn failure_reported_by_one_client_heals_for_all() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..400u64 {
        file.insert(key, vec![3u8; 16]).unwrap();
    }
    let c1 = file.add_client();
    let c2 = file.add_client();
    // Warm both.
    for key in 0..30u64 {
        file.lookup_via(c1, key).unwrap();
        file.lookup_via(c2, key).unwrap();
    }
    let bucket = file.address_of(200);
    file.crash_data_bucket(bucket);
    // c1 trips the failure and gets a degraded read + recovery.
    assert_eq!(file.lookup_via(c1, 200).unwrap().unwrap(), vec![3u8; 16]);
    // c2 then reads the SAME key with no degraded machinery at all.
    let cost = file.cost_of(|f| {
        assert_eq!(f.lookup_via(c2, 200).unwrap().unwrap(), vec![3u8; 16]);
    });
    assert_eq!(cost.count("find-record"), 0);
    assert_eq!(cost.count("suspect"), 0);
    assert!(cost.total_messages() <= 4);
    file.verify_integrity().unwrap();
}
