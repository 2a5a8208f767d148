//! The heartbeat-view router: group-level admission from stale snapshots.
//!
//! The router's world model is one [`Heartbeat`] per group plus its own
//! routing history since that beat. Routing picks the group minimising
//! `(suspect, believed depth + routed-since, pool occupancy, index)` — a
//! deterministic total order, so the admission log is byte-identical for
//! any worker thread count.
//!
//! Failure detection is the classic 3×-interval timeout
//! ([`params::HEARTBEAT_SUSPECT_FACTOR`]): a group is *suspect* when it has
//! been silent longer than that **and** the router has a reason to expect
//! a beat (the group said it was active, or the router routed work to it
//! since the last beat). Idle groups disarm their daemon after a final
//! `active: false` beat and are never suspected. Every route to a
//! quiet group restarts its grace window, so a freshly woken worker has a
//! full detector timeout to report in before being shunned.

use grouter_obs::{Comp, Ids, Recorder};
use grouter_runtime::{Heartbeat, RouterAgent};
use grouter_sim::params;
use grouter_sim::time::{SimDuration, SimTime};

/// What the router believes about one group.
#[derive(Clone, Debug)]
struct GroupView {
    /// Queue depth from the last surviving heartbeat.
    depth: u32,
    /// Requests routed there since that beat (the router's own stale-view
    /// correction: it counts what it sent even before the worker reports).
    routed_since: u32,
    /// When the router last heard from (or granted grace to) the group.
    last_contact: SimTime,
    /// The group's own claim from its last beat.
    active: bool,
    /// Mean pool-occupancy percentage from the last beat (placement
    /// tiebreak: prefer memory headroom).
    pool_pct: u32,
    /// Open observability span for the current suspect window (0 = none).
    suspect_span: u64,
}

impl GroupView {
    fn new() -> GroupView {
        GroupView {
            depth: 0,
            routed_since: 0,
            last_contact: SimTime::ZERO,
            active: false,
            pool_pct: 0,
            suspect_span: 0,
        }
    }
}

/// One routed request, as [`RouterAgent::admission_log`] prints it: when,
/// which spec, the chosen group, its effective depth and whether it was
/// suspect.
type Admission = (SimTime, u32, u32, u64, bool);

/// Heartbeat-view admission/placement policy (the service-mode router).
pub struct HeartbeatRouter {
    interval: SimDuration,
    view: Vec<GroupView>,
    /// Every route in admission order, formatted only when asked for.
    log: Vec<Admission>,
    /// Total requests routed.
    pub routed: u64,
}

impl HeartbeatRouter {
    /// A router for `groups` groups expecting beats every `interval`.
    pub fn new(groups: u32, interval: SimDuration) -> HeartbeatRouter {
        HeartbeatRouter {
            interval,
            view: (0..groups).map(|_| GroupView::new()).collect(),
            log: Vec::new(),
            routed: 0,
        }
    }

    /// The failure-detector verdict for group `g` at `now`.
    fn suspect(&self, g: usize, now: SimTime) -> bool {
        let v = &self.view[g];
        now.since(v.last_contact)
            > self
                .interval
                .saturating_mul(params::HEARTBEAT_SUSPECT_FACTOR)
            && (v.active || v.routed_since > 0)
    }
}

impl RouterAgent for HeartbeatRouter {
    fn on_heartbeat(&mut self, now: SimTime, src: u32, hb: Heartbeat, rec: &Recorder) {
        let Some(v) = self.view.get_mut(src as usize) else {
            return;
        };
        v.depth = hb.depth;
        v.routed_since = 0;
        v.last_contact = now;
        v.active = hb.active;
        v.pool_pct = hb.pool_pct;
        if v.suspect_span != 0 {
            // The suspect window closes: the group is alive after all.
            rec.end(v.suspect_span, vec![("recovered", true.into())]);
            v.suspect_span = 0;
        }
    }

    fn route(&mut self, now: SimTime, spec: u32, rec: &Recorder) -> u32 {
        let groups = self.view.len();
        let mut best: Option<(bool, u64, u32, usize)> = None;
        for g in 0..groups {
            let suspect = self.suspect(g, now);
            let v = &self.view[g];
            let key = (
                suspect,
                v.depth as u64 + v.routed_since as u64,
                v.pool_pct,
                g,
            );
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        // Span bookkeeping for suspect windows (no-ops under the default
        // trace mask; `end` happens in `on_heartbeat` when the group
        // resurfaces).
        for g in 0..groups {
            let suspect = self.suspect(g, now);
            let v = &mut self.view[g];
            if suspect && v.suspect_span == 0 {
                v.suspect_span =
                    rec.begin(Comp::Ctl, "suspect", Ids::NONE, vec![("group", g.into())]);
            }
        }
        let (suspect, eff, _, g) = best.unwrap_or((false, 0, 0, 0));
        let v = &mut self.view[g];
        if v.routed_since == 0 && v.last_contact < now {
            // First route since the group's last beat (or ever): grant a
            // fresh detector grace window.
            v.last_contact = now;
        }
        v.routed_since += 1;
        self.routed += 1;
        if rec.on(Comp::Ctl) {
            rec.instant(
                Comp::Ctl,
                "route",
                Ids::NONE,
                vec![("spec", spec.into()), ("group", g.into())],
            );
        }
        self.log.push((now, spec, g as u32, eff, suspect));
        g as u32
    }

    fn write_admission_log(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        for &(at, spec, g, eff, suspect) in &self.log {
            writeln!(
                out,
                "{} spec={} -> g{} eff={} suspect={}",
                at.as_nanos(),
                spec,
                g,
                eff,
                u8::from(suspect)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(depth: u32, active: bool) -> Heartbeat {
        Heartbeat {
            depth,
            pool_pct: 0,
            active,
        }
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn routes_to_least_loaded_group() {
        let rec = Recorder::disabled();
        let mut r = HeartbeatRouter::new(3, ms(50));
        let t = SimTime::ZERO + ms(10);
        r.on_heartbeat(t, 0, beat(5, true), &rec);
        r.on_heartbeat(t, 1, beat(1, true), &rec);
        r.on_heartbeat(t, 2, beat(9, true), &rec);
        assert_eq!(r.route(t + ms(1), 0, &rec), 1);
        // Routed work counts against the believed depth immediately.
        assert_eq!(r.route(t + ms(2), 0, &rec), 1); // 1+1=2 still least
        assert_eq!(r.route(t + ms(3), 0, &rec), 1); // 1+2=3 still < 5
        assert_eq!(r.route(t + ms(4), 0, &rec), 1); // 1+3=4 still < 5
        assert_eq!(r.route(t + ms(5), 0, &rec), 0); // ties at 5 break low
    }

    #[test]
    fn equal_depths_break_toward_memory_headroom() {
        let rec = Recorder::disabled();
        let mut r = HeartbeatRouter::new(3, ms(50));
        let t = SimTime::ZERO + ms(10);
        let with_pct = |depth, pool_pct| Heartbeat {
            pool_pct,
            ..beat(depth, true)
        };
        r.on_heartbeat(t, 0, with_pct(2, 40), &rec);
        r.on_heartbeat(t, 1, with_pct(2, 15), &rec);
        r.on_heartbeat(t, 2, with_pct(3, 0), &rec);
        // Groups 0 and 1 are equally deep: the emptier pools win, ahead of
        // the lower index; a deeper group loses whatever its pools hold.
        assert_eq!(r.route(t + ms(1), 0, &rec), 1);
        // Group 1 is now one deeper (routed since its beat), so it ties
        // with group 2 at 3; group 0 at 2 is least loaded.
        assert_eq!(r.route(t + ms(2), 0, &rec), 0);
        // All three at 3: group 2's empty pools break the tie.
        assert_eq!(r.route(t + ms(3), 0, &rec), 2);
    }

    #[test]
    fn silent_active_group_becomes_suspect_and_recovers() {
        let rec = Recorder::disabled();
        let mut r = HeartbeatRouter::new(2, ms(50));
        let t0 = SimTime::ZERO + ms(10);
        r.on_heartbeat(t0, 0, beat(3, true), &rec);
        r.on_heartbeat(t0, 1, beat(0, true), &rec);
        // Within the detector window the lighter group wins.
        assert_eq!(r.route(t0 + ms(20), 0, &rec), 1);
        // Group 0 keeps beating; group 1 goes silent past 3 intervals while
        // claiming active.
        r.on_heartbeat(t0 + ms(180), 0, beat(3, true), &rec);
        let late = t0 + ms(200);
        assert!(r.suspect(1, late));
        assert_eq!(r.route(late, 0, &rec), 0, "suspect group is shunned");
        // A fresh beat clears the suspicion.
        r.on_heartbeat(late + ms(1), 1, beat(0, true), &rec);
        assert!(!r.suspect(1, late + ms(2)));
        assert_eq!(r.route(late + ms(2), 0, &rec), 1);
    }

    #[test]
    fn idle_groups_are_never_suspected() {
        let rec = Recorder::disabled();
        let mut r = HeartbeatRouter::new(2, ms(50));
        let t0 = SimTime::ZERO + ms(10);
        // Group 1 signs off: final beat with active=false.
        r.on_heartbeat(t0, 1, beat(0, false), &rec);
        let late = t0 + ms(10_000);
        assert!(!r.suspect(1, late), "idle silence is not death");
        // Routing to it grants a grace window rather than instant suspicion.
        assert_eq!(
            r.route(late, 0, &rec),
            0,
            "never-seen g0 ties at 0 and breaks low"
        );
        assert_eq!(r.route(late, 1, &rec), 1);
        assert!(!r.suspect(1, late + ms(100)), "grace window from the route");
        assert!(r.suspect(1, late + ms(200)), "then the detector applies");
    }

    #[test]
    fn admission_log_records_every_route() {
        let rec = Recorder::disabled();
        let mut r = HeartbeatRouter::new(2, ms(50));
        let t = SimTime::ZERO + ms(1);
        r.route(t, 2, &rec);
        r.route(t + ms(1), 0, &rec);
        let log = r.admission_log();
        assert_eq!(log.lines().count(), 2);
        assert!(
            log.starts_with("1000000 spec=2 -> g0 eff=0 suspect=0\n"),
            "{log}"
        );
        assert_eq!(r.routed, 2);
    }
}
