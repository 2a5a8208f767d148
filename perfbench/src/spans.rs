//! Wall-clock spans recorded from outside the program, around calls into
//! its public layer functions, plus the forwarding data plane that opens
//! them around every plane call.
//!
//! Spans live in a thread-local log (the traced runs are single-threaded),
//! are kept in memory and written out when the run ends. A span's self
//! time is its duration minus its children's.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

use grouter_runtime::dataplane::PlaneStats;
use grouter_runtime::{DataOp, DataPlane, Destination, PlaneCtx, PutOp};
use grouter_store::{AccessToken, DataId, StoreError};
use grouter_topology::GpuRef;

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The whole run phase.
    Run,
    /// One `Simulation::step` (one event dispatch).
    Step,
    Put,
    Get,
    Consumed,
    MemoryChange,
    Request,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Step => "step",
            Kind::Put => "plane.put",
            Kind::Get => "plane.get",
            Kind::Consumed => "plane.on_consumed",
            Kind::MemoryChange => "plane.on_memory_change",
            Kind::Request => "plane.on_request",
        }
    }

    pub fn is_plane(self) -> bool {
        !matches!(self, Kind::Run | Kind::Step)
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Nanoseconds since the log was started.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The spans of one traced run plus the bytes the plane's ops move.
pub struct Log {
    origin: Instant,
    pub spans: Vec<Span>,
    open: u32,
    /// Data operations the plane returned, and the bytes their legs move.
    pub ops: u64,
    pub bytes: f64,
}

impl Log {
    fn new() -> Log {
        Log {
            origin: Instant::now(),
            spans: Vec::new(),
            open: NO_PARENT,
            ops: 0,
            bytes: 0.0,
        }
    }

    /// Total duration of spans of `kind`.
    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::ns)
            .sum()
    }

    /// Durations of spans of `kind`, as floats.
    pub fn durations(&self, kind: Kind) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ns() as f64)
            .collect()
    }

    pub fn calls(&self, kind: Kind) -> u64 {
        self.spans.iter().filter(|s| s.kind == kind).count() as u64
    }

    /// Total duration of plane spans.
    pub fn plane_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind.is_plane())
            .map(Span::ns)
            .sum()
    }

    /// Sum over spans of `kind` of their duration minus their direct
    /// children's.
    pub fn self_ns(&self, kind: Kind) -> u64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.kind == kind)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum()
    }

    /// Write the first `limit` spans as `index name start_ns end_ns
    /// parent` (TSV); a trailing comment says how many were left out.
    pub fn write_tsv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.kind.label(),
                s.start,
                s.end
            )?;
        }
        if self.spans.len() > limit {
            writeln!(w, "# {} of {} spans written", limit, self.spans.len())?;
        }
        w.flush()
    }
}

thread_local! {
    static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread (dropping any earlier log).
pub fn start() {
    LOG.with(|l| *l.borrow_mut() = Some(Log::new()));
}

/// Stop recording and return the log.
pub fn finish() -> Log {
    LOG.with(|l| l.borrow_mut().take())
        .expect("spans::start was called on this thread")
}

/// Open a span under the innermost open one; returns its index. A no-op
/// returning `u32::MAX` when no log is active.
#[inline]
pub fn open(kind: Kind) -> u32 {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let Some(log) = l.as_mut() else {
            return NO_PARENT;
        };
        let idx = log.spans.len() as u32;
        let start = log.origin.elapsed().as_nanos() as u64;
        log.spans.push(Span {
            kind,
            start,
            end: start,
            parent: log.open,
        });
        log.open = idx;
        idx
    })
}

/// Close span `idx` (returned by [`open`]).
#[inline]
pub fn close(idx: u32) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let Some(log) = l.as_mut() else {
            return;
        };
        if idx == NO_PARENT {
            return;
        }
        let end = log.origin.elapsed().as_nanos() as u64;
        let s = &mut log.spans[idx as usize];
        s.end = end;
        log.open = s.parent;
    })
}

fn note_ops<'a>(ops: impl IntoIterator<Item = &'a DataOp>) {
    LOG.with(|l| {
        if let Some(log) = l.borrow_mut().as_mut() {
            for op in ops {
                log.ops += 1;
                log.bytes += op.bytes_moved();
            }
        }
    })
}

/// A [`DataPlane`] that forwards every call to `inner`, timing each as a
/// span. It changes nothing the plane decides.
pub struct TimedPlane {
    inner: Box<dyn DataPlane>,
}

impl TimedPlane {
    pub fn new(inner: Box<dyn DataPlane>) -> TimedPlane {
        TimedPlane { inner }
    }
}

impl DataPlane for TimedPlane {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn put(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        source: Destination,
        bytes: f64,
        consumers: u32,
    ) -> Result<PutOp, StoreError> {
        let s = open(Kind::Put);
        let r = self.inner.put(ctx, token, source, bytes, consumers);
        close(s);
        if let Ok(p) = &r {
            note_ops([&p.op]);
        }
        r
    }

    fn get(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        id: DataId,
        dest: Destination,
    ) -> Result<DataOp, StoreError> {
        let s = open(Kind::Get);
        let r = self.inner.get(ctx, token, id, dest);
        close(s);
        if let Ok(op) = &r {
            note_ops([op]);
        }
        r
    }

    fn on_consumed(&mut self, ctx: &mut PlaneCtx<'_>, id: DataId) -> Vec<DataOp> {
        let s = open(Kind::Consumed);
        let r = self.inner.on_consumed(ctx, id);
        close(s);
        note_ops(&r);
        r
    }

    fn on_memory_change(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) -> Vec<DataOp> {
        let s = open(Kind::MemoryChange);
        let r = self.inner.on_memory_change(ctx, gpu);
        close(s);
        note_ops(&r);
        r
    }

    fn on_request(&mut self, ctx: &mut PlaneCtx<'_>, stages: &[Destination]) {
        let s = open(Kind::Request);
        self.inner.on_request(ctx, stages);
        close(s);
    }

    fn stats(&self) -> PlaneStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        start();
        let run = open(Kind::Run);
        let step = open(Kind::Step);
        let put = open(Kind::Put);
        std::thread::sleep(std::time::Duration::from_millis(2));
        close(put);
        close(step);
        close(run);
        let log = finish();
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[2].parent, 1);
        assert_eq!(log.spans[1].parent, 0);
        let step_self = log.self_ns(Kind::Step);
        assert!(step_self < log.spans[1].ns());
        assert_eq!(step_self + log.spans[2].ns(), log.spans[1].ns());
        assert_eq!(log.plane_ns(), log.spans[2].ns());
        // Without a log, spans are no-ops.
        let s = open(Kind::Get);
        close(s);
    }
}
