//! `TraceGenerator::fill_batch` fills a batch column-wise: one loop decodes
//! the chunk's RNG draws in per-event order into one column per stack
//! mapper, and each mapper then samples its column's distances and applies
//! them. It must still equal the per-event oracle, `next_event`, on the
//! real service profiles, for every huge-page mix and chunk size, and leave
//! the generator in the oracle's state.

use softsku::archsim::trace::{EventBatch, HugePageMix, InsnClass, TraceGenerator};
use softsku::workloads::{Microservice, PlatformKind};

const SERVICES: [Microservice; 4] = [
    Microservice::Web,
    Microservice::Feed1,
    Microservice::Ads1,
    Microservice::Cache2,
];

const MIXES: [(f64, f64); 3] = [(0.0, 0.0), (0.3, 0.6), (1.0, 1.0)];

const CHUNKS: [usize; 4] = [1, 7, 4096, 4097];

/// Checks `batch` against the oracle's next `batch.len()` events.
fn assert_matches_oracle(oracle: &mut TraceGenerator, batch: &EventBatch, what: &str) {
    let mut slot = 0;
    for i in 0..batch.len() {
        let e = oracle.next_event();
        assert_eq!(batch.classes[i], e.class, "{what}: class of event {i}");
        assert_eq!(batch.code_lines[i], e.code_line, "{what}: code line {i}");
        assert_eq!(
            batch.code_pages[i], e.code_page.page,
            "{what}: code page {i}"
        );
        assert_eq!(
            batch.code_huge[i], e.code_page.is_huge,
            "{what}: code huge {i}"
        );
        let is_memory = matches!(e.class, InsnClass::Load | InsnClass::Store);
        assert_eq!(e.data.is_some(), is_memory, "{what}: data of event {i}");
        if let Some(d) = e.data {
            assert_eq!(batch.data_event[slot], i as u32, "{what}: slot {slot}");
            assert_eq!(
                batch.data_is_store[slot], d.is_store,
                "{what}: store {slot}"
            );
            assert_eq!(batch.data_lines[slot], d.line, "{what}: data line {slot}");
            assert_eq!(
                batch.data_pages[slot], d.page.page,
                "{what}: data page {slot}"
            );
            assert_eq!(
                batch.data_huge[slot], d.page.is_huge,
                "{what}: data huge {slot}"
            );
            slot += 1;
        }
    }
    for column in [
        batch.data_event.len(),
        batch.data_is_store.len(),
        batch.data_lines.len(),
        batch.data_pages.len(),
        batch.data_huge.len(),
    ] {
        assert_eq!(
            column, slot,
            "{what}: data columns hold one slot per access"
        );
    }
}

#[test]
fn fill_batch_matches_next_event_on_real_profiles() {
    for service in SERVICES {
        let stream = service.profile(PlatformKind::Skylake18).unwrap().stream;
        for (code_huge_fraction, data_huge_fraction) in MIXES {
            let mix = HugePageMix {
                code_huge_fraction,
                data_huge_fraction,
            };
            let what = format!("{service} huge ({code_huge_fraction}, {data_huge_fraction})");
            let mut oracle = TraceGenerator::new(&stream, mix, 21);
            let mut batched = TraceGenerator::new(&stream, mix, 21);
            let mut batch = EventBatch::with_capacity(64);
            for n in CHUNKS {
                batched.fill_batch(&mut batch, n);
                assert_eq!(batch.len(), n, "{what}: chunk of {n}");
                assert_matches_oracle(&mut oracle, &batch, &format!("{what}, chunk {n}"));
            }

            // A chunk with no loads or stores leaves every data column
            // empty and still advances both halves in step.
            let mut empty_chunks = 0;
            for _ in 0..64 {
                batched.fill_batch(&mut batch, 1);
                assert_matches_oracle(&mut oracle, &batch, &format!("{what}, single event"));
                if batch.data_event.is_empty() {
                    empty_chunks += 1;
                    assert!(batch.data_lines.is_empty() && batch.data_pages.is_empty());
                }
            }
            assert!(empty_chunks > 0, "{what}: no chunk without loads or stores");
            batched.fill_batch(&mut batch, 4096);
            assert_matches_oracle(&mut oracle, &batch, &format!("{what}, after empty chunks"));

            // The generator states converged: the next events still agree.
            for _ in 0..1000 {
                assert_eq!(oracle.next_event(), batched.next_event(), "{what}: state");
            }
        }
    }
}
