//! Telling a quiet host from a disturbed one, and measuring only on a quiet
//! one.
//!
//! The host this benchmark was written on is a small virtual machine whose
//! processor core is shared with a neighbour: for stretches of one to twenty
//! seconds, a third of the time in a busy hour, every instruction-dense loop
//! runs 1.3–1.9 times slower, and nothing the guest can read (steal time,
//! load) says so. A drain that falls into such a stretch is not a noisy
//! sample of the program's speed, it is a sample of something else.
//!
//! [`probe_ms`] times a fixed integer loop with the instruction-level
//! parallelism of the program's own hot paths (a dependent chain does not
//! notice the neighbour). A [`Gate`] puts one reading before and one after
//! every measured unit — a drain, a slice of the open-loop phase — waits for
//! a quiet reading before it starts a unit, and runs a unit again when the
//! reading after it was not quiet or the unit found itself spoiled. The
//! units a run reports are those whose two readings are both within
//! [`QUIET_FACTOR`] of what a quiet host reads; the work reported is fixed,
//! only the work thrown away varies. The probe never looks at the program: a
//! slower program reads exactly as quiet as a faster one, so the gate cannot
//! hide a regression.

use std::time::{Duration, Instant};

use crayfish::sim::{now, Stopwatch};

use crate::stats::{median, quantile};
use crate::Result;

/// A reading up to this multiple of what a quiet host reads is quiet.
/// Beside an in-process rig quiet readings scatter by ±1.5 %, beside a
/// server or broker node that polls its sockets by ±8 %; a disturbed stretch
/// reads 1.3–1.9. What is milder than that the best-of estimators of the run
/// have to carry.
pub const QUIET_FACTOR: f64 = 1.2;

/// Pause between two readings while waiting for the host to calm down.
const WAIT_STEP: Duration = Duration::from_millis(20);

/// One chunk of the probe: eight independent multiply-add chains, so that
/// it runs at the instructions per cycle a neighbour on the core takes away.
fn chunk_ms() -> f64 {
    let sw = Stopwatch::start();
    let mut s = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut acc = 0u64;
    for i in 0..120_000u64 {
        for (k, x) in s.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(k as u64 + i);
            acc ^= *x >> 17;
        }
    }
    std::hint::black_box((s, acc));
    sw.elapsed_millis()
}

/// The host's speed right now: nine chunks of a fixed loop, about 6 ms,
/// read as nine times their median — the speed the processor computes at,
/// whoever else (a polling server of the rig, a timer) takes a turn on it
/// meanwhile. What it cannot see, a processor taken away for milliseconds
/// at a time, the generator's own lateness shows (`Unit::spoiled`).
pub fn probe_ms() -> f64 {
    let chunks: Vec<f64> = (0..9).map(|_| chunk_ms()).collect();
    median(&chunks) * chunks.len() as f64
}

/// The same loop, read as all the time it took: what else ran on the
/// processor meanwhile counts. Beside an idle rig this tells what the rig
/// takes from a computing thread.
pub fn probe_wall_ms() -> f64 {
    (0..9).map(|_| chunk_ms()).sum()
}

/// A measured unit between the two readings that bracket it.
#[derive(Debug, Clone)]
pub struct Unit<T> {
    pub before_ms: f64,
    pub after_ms: f64,
    /// The unit itself saw the host take the processor away (an open-loop
    /// slice whose generator was held up): disturbed whatever the readings.
    pub spoiled: bool,
    pub value: T,
}

#[derive(Debug)]
pub struct Gate {
    /// Every reading since the last [`Gate::rebase`]; their lower quartile
    /// is what a quiet host reads.
    readings_ms: Vec<f64>,
    /// The last reading, reused as the next unit's `before` when quiet.
    last_ms: f64,
    /// No waiting and no repeating after this; `None`: never wait (`--quick`).
    deadline: Option<Instant>,
    /// Time spent waiting for a quiet reading.
    pub waited: Duration,
}

impl Gate {
    /// A gate that may spend until `deadline` waiting and repeating.
    pub fn until(deadline: Instant) -> Gate {
        Gate {
            readings_ms: Vec::new(),
            last_ms: f64::NAN,
            deadline: Some(deadline),
            waited: Duration::ZERO,
        }
    }

    /// A gate that takes its readings but never waits or repeats.
    pub fn off() -> Gate {
        Gate {
            deadline: None,
            ..Gate::until(now())
        }
    }

    /// Move the end of the budget for waiting and repeating (a gate that
    /// is off stays off): each phase of a run gets its own share.
    pub fn extend_until(&mut self, deadline: Instant) {
        self.deadline = self.deadline.map(|_| deadline);
    }

    /// Forget what a quiet host reads: what runs beside the probe from now
    /// on (an engine polling a broker over TCP, say) differs from what ran
    /// beside it so far, and readings only compare within one such state.
    /// Units collected before must be chosen before.
    pub fn rebase(&mut self) {
        self.readings_ms.clear();
        self.last_ms = f64::NAN;
    }

    fn probe(&mut self) -> f64 {
        self.last_ms = probe_ms();
        self.readings_ms.push(self.last_ms);
        self.last_ms
    }

    /// What a quiet host reads: the lower quartile of the readings so far.
    /// Not their minimum: what idles beside the probe (a server polling its
    /// sockets) sometimes pauses, and one reading without it would make
    /// every other look disturbed. A host disturbed for over three quarters
    /// of a run passes for quiet — the gate then gates nothing, and the run
    /// is what it would have been without it.
    pub fn quiet_ms(&self) -> f64 {
        quantile(&self.readings_ms, 0.25)
    }

    fn is_quiet(&self, reading_ms: f64) -> bool {
        self.readings_ms.is_empty() || reading_ms <= self.quiet_ms() * QUIET_FACTOR
    }

    /// The budget for waiting and repeating is used up.
    fn spent(&self) -> bool {
        self.deadline.map_or(true, |d| now() >= d)
    }

    /// A quiet reading to start a unit on: the last one if it was quiet,
    /// else new ones until one is or the budget is spent.
    fn wait_quiet(&mut self) -> f64 {
        if self.last_ms.is_nan() {
            self.probe();
        }
        if !self.is_quiet(self.last_ms) && !self.spent() {
            let started = now();
            while !self.is_quiet(self.last_ms) && !self.spent() {
                std::thread::sleep(WAIT_STEP);
                self.probe();
            }
            self.waited += now().duration_since(started);
        }
        self.last_ms
    }

    /// Run `unit` between two readings; it returns its value and whether
    /// it found itself spoiled.
    fn bracket<T>(&mut self, unit: impl FnOnce() -> Result<(T, bool)>) -> Result<Unit<T>> {
        let before_ms = self.wait_quiet();
        let (value, spoiled) = unit()?;
        // What the unit left winding down reads as disturbed for a moment;
        // a disturbed host still does a moment later.
        let after_ms = self.probe();
        if !self.is_quiet(after_ms) {
            std::thread::sleep(WAIT_STEP);
            self.probe();
        }
        Ok(Unit {
            before_ms,
            after_ms: self.last_ms,
            spoiled,
            value,
        })
    }

    pub fn unit_is_quiet<T>(&self, u: &Unit<T>) -> bool {
        !u.spoiled && self.is_quiet(u.before_ms) && self.is_quiet(u.after_ms)
    }

    /// Run `unit` until `want` runs were quiet on both sides (judged by the
    /// readings so far; later readings can change the verdict) or the
    /// budget is spent, but at least `want` times. Every run is returned.
    pub fn collect<T>(
        &mut self,
        want: usize,
        mut unit: impl FnMut() -> Result<(T, bool)>,
    ) -> Result<Vec<Unit<T>>> {
        let mut units = Vec::with_capacity(want);
        loop {
            let quiet = units.iter().filter(|u| self.unit_is_quiet(u)).count();
            if quiet >= want || (units.len() >= want && self.spent()) {
                return Ok(units);
            }
            units.push(self.bracket(&mut unit)?);
        }
    }

    /// Which `want` of `units` to report: the first quiet ones, in the order
    /// they ran; when those are too few, the least disturbed of the others
    /// fill up, and the second value says so.
    pub fn choose<T>(&self, units: &[Unit<T>], want: usize) -> (Vec<usize>, bool) {
        let (mut chosen, mut others): (Vec<usize>, Vec<usize>) =
            (0..units.len()).partition(|&i| self.unit_is_quiet(&units[i]));
        chosen.truncate(want);
        let filled = chosen.len() < want;
        let worse = |i: &usize| units[*i].before_ms.max(units[*i].after_ms);
        others.sort_by(|a, b| worse(a).total_cmp(&worse(b)));
        others.truncate(want.saturating_sub(chosen.len()));
        chosen.extend(others);
        (chosen, filled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(before_ms: f64, after_ms: f64, value: u32) -> Unit<u32> {
        Unit {
            before_ms,
            after_ms,
            spoiled: false,
            value,
        }
    }

    fn gate_with_readings(readings_ms: &[f64]) -> Gate {
        Gate {
            readings_ms: readings_ms.to_vec(),
            ..Gate::off()
        }
    }

    #[test]
    fn a_unit_is_quiet_when_both_readings_are() {
        let gate = gate_with_readings(&[10.0]);
        assert!(gate.is_quiet(11.9));
        assert!(!gate.is_quiet(12.1));
        assert!(gate.unit_is_quiet(&unit(10.0, 11.9, 0)));
        assert!(!gate.unit_is_quiet(&unit(10.0, 18.0, 0)));
        assert!(!gate.unit_is_quiet(&unit(18.0, 10.0, 0)));
        let spoiled = Unit {
            spoiled: true,
            ..unit(10.0, 10.0, 0)
        };
        assert!(!gate.unit_is_quiet(&spoiled));
    }

    #[test]
    fn the_first_quiet_units_are_chosen_then_the_least_disturbed() {
        let gate = gate_with_readings(&[10.0]);
        let units = [
            unit(19.0, 10.0, 0),
            unit(10.0, 10.3, 1),
            unit(10.3, 14.0, 2),
            unit(10.2, 10.1, 3),
        ];
        assert_eq!(gate.choose(&units, 1), (vec![1], false));
        assert_eq!(gate.choose(&units, 2), (vec![1, 3], false));
        assert_eq!(gate.choose(&units, 3), (vec![1, 3, 2], true));
        assert_eq!(gate.choose(&units, 9), (vec![1, 3, 2, 0], true));
    }

    #[test]
    fn a_later_better_reading_disqualifies_earlier_units() {
        // Judged by the first readings the first unit looked quiet; the
        // host then showed what quiet really reads.
        let mut gate = gate_with_readings(&[12.8, 13.0]);
        let early = unit(12.8, 13.0, 0);
        assert!(gate.unit_is_quiet(&early));
        gate.readings_ms
            .extend([10.0, 10.1, 10.0, 10.2, 10.1, 10.0]);
        assert!(!gate.unit_is_quiet(&early));
    }

    #[test]
    fn one_low_reading_does_not_make_the_others_disturbed() {
        let gate = gate_with_readings(&[6.7, 6.7, 5.75, 6.68, 6.72, 6.7, 6.69, 6.71]);
        assert!(gate.is_quiet(6.72));
        assert!(gate.is_quiet(5.75));
        assert!(!gate.is_quiet(8.1));
    }

    #[test]
    fn a_gate_that_is_off_runs_each_unit_once() {
        let mut gate = Gate::off();
        let mut runs = 0;
        let units = gate
            .collect(3, || {
                runs += 1;
                Ok((runs, false))
            })
            .unwrap();
        assert_eq!(units.len(), 3);
        assert_eq!(gate.waited, Duration::ZERO);
    }

    #[test]
    fn the_probe_reads_a_positive_time() {
        let reading = probe_ms();
        assert!(reading.is_finite() && reading > 0.0, "{reading}");
    }
}
