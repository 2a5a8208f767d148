//! # grouter-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§6), each exposing `run() -> String` that regenerates the
//! table's rows / figure's series on the simulated cluster. The
//! `all_experiments` binary runs the whole suite and prints every report.
//!
//! The goal is shape fidelity, not absolute numbers (the substrate is a
//! simulator — `DESIGN.md` §2): who wins, by roughly what factor, and where
//! crossovers fall.

pub mod experiments;
pub mod harness;

pub use harness::*;

#[cfg(test)]
mod smoke_tests {
    //! Cheap end-to-end smoke tests: the fast experiments must run and
    //! contain their headline results (full regeneration happens via the
    //! binaries; see EXPERIMENTS.md).

    #[test]
    fn table1_matrix_is_correct() {
        let out = crate::experiments::table1::run();
        assert!(out.contains("GROUTER"));
        // GROUTER: yes/yes/yes; DeepPlan+: no/yes/no.
        let grouter_line = out.lines().find(|l| l.contains("GROUTER")).expect("row");
        assert_eq!(grouter_line.matches("yes").count(), 3, "{grouter_line}");
        let deepplan_line = out.lines().find(|l| l.contains("DeepPlan+")).expect("row");
        assert_eq!(deepplan_line.matches("yes").count(), 1, "{deepplan_line}");
    }

    #[test]
    fn fig06_reports_paper_statistics() {
        let out = crate::experiments::fig06::run();
        assert!(out.contains("8 x 48 GB/s"), "{out}");
        assert!(out.contains("12 x PCIe-only"), "{out}");
    }

    #[test]
    fn sweeps_cover_all_four_constants() {
        let out = crate::experiments::sweeps::run();
        for marker in [
            "chunks per batch",
            "chunk size",
            "max parallel",
            "detour hops",
        ] {
            assert!(out.contains(marker), "missing section '{marker}'");
        }
    }
}
