//! Cross-crate integration: the public API surface of the whole workspace
//! exercised together — driver ↔ coding layer ↔ addressing ↔ simulator —
//! plus consistency checks between the analytic availability model and the
//! behavioural (simulated) failure tolerance.

use lhrs_baselines::{ReplicatedLh, Scheme};
use lhrs_core::{availability, Config, FilterSpec, LhrsFile};
use lhrs_gf::{GaloisField, Gf8};
use lhrs_lh::{scramble, FileState};
use lhrs_rs::RsCode;
use lhrs_sim::LatencyModel;

fn cfg(k: usize) -> Config {
    Config {
        group_size: 4,
        initial_k: k,
        bucket_capacity: 16,
        record_len: 48,
        latency: LatencyModel::default(),
        node_pool: 1024,
        ..Config::default()
    }
}

#[test]
fn whole_stack_smoke() {
    // GF → RS → core file → scan, one pass through every layer.
    assert_eq!(Gf8::mul(Gf8::inv(7).unwrap(), 7), 1);
    let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
    assert_eq!(code.coeff(0, 0), 1);

    let mut file = LhrsFile::new(cfg(2)).unwrap();
    for key in 0..300u64 {
        file.insert(scramble(key), format!("v{key}").into_bytes())
            .unwrap();
    }
    assert!(file.bucket_count() > 16);
    let hits = file.scan(FilterSpec::All).unwrap();
    assert_eq!(hits.len(), 300);
    file.verify_integrity().unwrap();
}

#[test]
fn simulated_tolerance_matches_analytic_model() {
    // The analytic model says a (m=4, k=2) group survives any 2 losses and
    // no 3; the simulation must agree behaviourally.
    let mut file = LhrsFile::new(cfg(2)).unwrap();
    for key in 0..400u64 {
        file.insert(key, vec![key as u8; 24]).unwrap();
    }
    // 2 losses in group 0: recoverable.
    file.crash_data_bucket(0);
    file.crash_data_bucket(1);
    let rep = file.check_group(0);
    assert!(rep.recovered);
    // 3 losses in group 1: unrecoverable — matching the model's tolerance.
    file.crash_data_bucket(4);
    file.crash_data_bucket(5);
    file.crash_data_bucket(6);
    let rep = file.check_group(1);
    assert!(rep.unrecoverable);
    assert!(availability::group_availability(4, 2, 0.99) < 1.0);
}

#[test]
fn distributed_file_addresses_as_file_state() {
    // The distributed file and the pure LH arithmetic share the hash
    // family; a key's bucket in the file equals FileState::address.
    let mut file = LhrsFile::new(cfg(1)).unwrap();
    for key in 0..500u64 {
        file.insert(scramble(key), vec![1]).unwrap();
    }
    let m = file.bucket_count();
    let mut state = FileState::new(1);
    while state.bucket_count() < m {
        state.split();
    }
    for key in 0..500u64 {
        let k = scramble(key);
        assert_eq!(file.address_of(k), state.address(k));
    }
}

#[test]
fn schemes_rank_as_the_paper_argues() {
    // Search cost: LH*RS ≈ LH* ≪ LH*s. Storage overhead: LH*RS(k=1) ≪ LH*m.
    let latency = LatencyModel::instant();
    let mut plain = ReplicatedLh::plain(16, 512, latency);
    let mut mirror = ReplicatedLh::mirror(16, 512, latency);
    let mut stripe = ReplicatedLh::stripe(4, 16, 1024, latency);
    let mut lhrs = lhrs_baselines::LhrsScheme::new(
        "lhrs",
        Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 16,
            record_len: 64,
            latency,
            node_pool: 1024,
            ..Config::default()
        },
    );

    let search_cost = |s: &mut dyn Scheme| -> f64 {
        for key in 0..600u64 {
            s.insert(scramble(key), vec![9u8; 48]);
        }
        for key in 0..50u64 {
            s.lookup(scramble(key));
        }
        let before = s.stats();
        for key in 0..100u64 {
            assert!(s.lookup(scramble(key)).is_some());
        }
        s.stats().since(&before).total_messages() as f64 / 100.0
    };

    let c_plain = search_cost(&mut plain);
    let c_mirror = search_cost(&mut mirror);
    let c_stripe = search_cost(&mut stripe);
    let c_lhrs = search_cost(&mut lhrs);
    assert!((c_plain - 2.0).abs() < 0.3, "plain {c_plain}");
    assert!((c_lhrs - 2.0).abs() < 0.3, "lhrs {c_lhrs}");
    assert!((c_mirror - 2.0).abs() < 0.3, "mirror {c_mirror}");
    assert!(c_stripe > 7.0, "stripe {c_stripe}");

    let (p_m, r_m) = mirror.storage_bytes();
    let (p_l, r_l) = lhrs.storage_bytes();
    assert!(
        (r_m as f64 / p_m as f64) > 0.99,
        "mirror overhead must be ~100%"
    );
    assert!(
        (r_l as f64 / p_l as f64) < 0.6,
        "lhrs k=1 overhead must be far below mirroring"
    );

    // Availability ordering at p = 0.99: plain < stripe/lhrs(k=1) ≤ mirror-ish.
    let p = 0.99;
    assert!(plain.availability(p) < lhrs.availability(p));
    assert!(plain.availability(p) < stripe.availability(p));
    assert!(lhrs.tolerates() == 1 && mirror.tolerates() == 1 && plain.tolerates() == 0);
}

#[test]
fn drills_work_back_to_back() {
    // Repeated failure/recovery cycles with interleaved writes keep the
    // file consistent.
    let mut file = LhrsFile::new(cfg(2)).unwrap();
    for key in 0..300u64 {
        file.insert(key, vec![key as u8; 32]).unwrap();
    }
    for round in 0..4u64 {
        let bucket = (round * 2) % file.bucket_count();
        file.crash_data_bucket(bucket);
        let group = bucket / 4;
        let rep = file.check_group(group);
        assert!(rep.recovered, "round {round}: {rep:?}");
        for key in 300 + round * 50..300 + (round + 1) * 50 {
            file.insert(key, vec![key as u8; 32]).unwrap();
        }
        file.verify_integrity().unwrap();
    }
    let (n, i) = file.drill_file_state_recovery();
    assert_eq!(n + (1 << i), file.bucket_count());
}
