//! Seeded stores for the last-writer tests: each store's bytes come
//! from its value seed, and a test that checks which store won a byte
//! needs the contenders to disagree there.

use std::collections::HashMap;

use gpu_model::RemoteStore;
use sim_engine::DetRng;

/// The values written so far at each (destination, byte address).
#[derive(Debug, Default)]
pub struct Written(HashMap<(u8, u64), Vec<u8>>);

impl Written {
    /// True if `store` writes, at every byte, a value no earlier store
    /// wrote there.
    pub fn differs(&self, store: &RemoteStore) -> bool {
        let d = store.dst.index() as u8;
        (store.addr..)
            .zip(store.bytes())
            .all(|(a, b)| self.0.get(&(d, a)).is_none_or(|v| !v.contains(&b)))
    }

    /// Records `store`'s values.
    pub fn record(&mut self, store: &RemoteStore) {
        let d = store.dst.index() as u8;
        for (a, b) in (store.addr..).zip(store.bytes()) {
            self.0.entry((d, a)).or_default().push(b);
        }
    }

    /// `store` with a value seed from `rng`, redrawn until its bytes
    /// differ from every value written where it overlaps an earlier
    /// store; records the result.
    pub fn fresh(&mut self, rng: &mut DetRng, store: RemoteStore) -> RemoteStore {
        loop {
            let s = RemoteStore {
                value_seed: rng.next_u64(),
                ..store
            };
            if self.differs(&s) {
                self.record(&s);
                return s;
            }
        }
    }
}

/// Asserts that stores writing the same byte of the same destination
/// write different values there, so a last-writer check cannot pass
/// with the wrong winner.
pub fn assert_overlaps_differ(stores: &[RemoteStore]) {
    let mut written = Written::default();
    for (i, s) in stores.iter().enumerate() {
        assert!(
            written.differs(s),
            "store {i} repeats an earlier value where they overlap"
        );
        written.record(s);
    }
}
