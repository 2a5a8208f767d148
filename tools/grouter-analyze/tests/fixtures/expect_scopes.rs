//@ path: crates/runtime/src/fixture.rs
//! A clippy expectation justifies the sites of the lint it names over
//! clippy's own scope: the statement, match arm or fn it decorates.

pub struct Runtime {
    slots: Vec<Option<u64>>,
}

impl Runtime {
    pub fn step(&mut self, i: usize, op: Result<u64, String>) -> u64 {
        #[expect(clippy::expect_used, reason = "admit() filled slot i")]
        let a = self.slots.get(i).copied().flatten().expect("filled");
        let b = self.slots.get(i + 1).copied().flatten().expect("not covered");
        let c = match op {
            Ok(v) => v,
            #[expect(clippy::panic, reason = "a failed op aborts the run")]
            Err(e) => panic!("op failed: {e}"),
        };
        #[expect(clippy::expect_used, reason = "names expect_used, not indexing_slicing")]
        let d = self.slots[i].expect("filled");
        #[expect(clippy::disallowed_types, reason = "a host-side stamp, never fed to sim time")]
        let _t0 = Instant::now();
        a + b + c + d + self.head()
    }

    #[expect(clippy::unwrap_used, reason = "new() fills slot 0")]
    fn head(&self) -> u64 {
        self.slots.first().copied().flatten().unwrap()
    }
}
