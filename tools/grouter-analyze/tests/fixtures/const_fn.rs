//@ path: crates/transfer/src/fixture.rs
//! `const fn` and `const unsafe fn` are functions, not `const` items: they
//! and the methods after them stay in the item model, so the panic sites
//! they reach are reported. A `const` item is still skipped whole.

const LIMIT: usize = 4;

pub struct TransferEngine;

impl TransferEngine {
    pub const fn new() -> TransferEngine {
        TransferEngine
    }

    pub const unsafe fn raw(&self) -> u64 {
        0
    }

    pub fn admit(&mut self, req: u64) {
        let _slot = slot(req as usize % LIMIT);
        self.finish(req);
    }

    fn finish(&self, req: u64) {
        let x: Option<u64> = None;
        let _a = x.unwrap();
        let _b = req;
    }
}

const fn slot(i: usize) -> u64 {
    let table = [1u64, 2, 3];
    table[i]
}
