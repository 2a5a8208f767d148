//@ path: crates/store/src/fixture.rs
// Narrowing casts on byte/rate quantities need try_from or a pragma.

const PEAK: u32 = LINK_RATE as u32;

fn narrow(total_bytes: u64, rate_bps: u64, escape: u64, len: u64) -> u32 {
    let a = total_bytes as u32;
    let b = rate_bps as u16;
    let c = escape as u32;
    let d = len as u32;
    let e = total_bytes as u64;
    a + b as u32 + c + d + e as u32
}

fn call_site(p: &Plan) -> u32 {
    p.total_bytes() as u32
}

fn allowed(capacity: u64) -> u32 {
    // grouter-analyze: allow(silent-truncation): fits in u32 by construction
    capacity as u32
}

#[cfg(test)]
mod tests {
    fn in_test(total_bytes: u64) -> u32 {
        total_bytes as u32
    }
}
