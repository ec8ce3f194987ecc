//! Order statistics over latency samples.

/// The `q`-quantile (`0 <= q <= 1`) of `samples`, interpolating linearly
/// between order statistics. `NaN` when `samples` is empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The timings of one unit of work (an interactive session, a pool
/// generation) replayed several times. Every replay does identical work
/// (the benchmark checks this), so a phase's time is its median over the
/// replays, which drops the replays a burst of host contention hit.
///
/// On a shared host the hypervisor also stops the machine's CPUs for
/// whole seconds to run other guests ("stolen" time), stretching every
/// interval without any work being done. With `on_granted_cpu`, each
/// replay's times are scaled by the share of the CPU time its work wanted
/// that it was granted (see [`crate::meta::granted_share`]), so a run on
/// a host that steals 30% of the CPU reads what a run on an idle host
/// reads.
#[derive(Debug, Clone, Default)]
pub struct Replays {
    /// Per replay, the wall time of each timed phase, ms.
    pub phases_ms: Vec<Vec<f64>>,
    /// Per replay, the wall time of the whole replay, ms.
    pub total_ms: Vec<f64>,
    /// Per replay, the share of the CPU time it wanted that it was granted.
    pub granted: Vec<f64>,
}

impl Replays {
    /// Record one replay.
    pub fn push(&mut self, phases_ms: Vec<f64>, total_ms: f64, granted: f64) {
        self.phases_ms.push(phases_ms);
        self.total_ms.push(total_ms);
        self.granted.push(granted);
    }

    /// Replays recorded.
    pub fn len(&self) -> usize {
        self.total_ms.len()
    }

    /// Whether no replay was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_ms.is_empty()
    }

    fn scale(&self, replay: usize, on_granted_cpu: bool) -> f64 {
        if on_granted_cpu {
            self.granted[replay]
        } else {
            1.0
        }
    }

    /// Each phase's time, ms: its median over the replays that have it.
    pub fn phase_medians(&self, on_granted_cpu: bool) -> Vec<f64> {
        let len = self.phases_ms.iter().map(Vec::len).max().unwrap_or(0);
        (0..len)
            .map(|i| {
                let times: Vec<f64> = (0..self.len())
                    .filter_map(|r| Some(self.phases_ms[r].get(i)? * self.scale(r, on_granted_cpu)))
                    .collect();
                median(&times)
            })
            .collect()
    }

    /// The length of one replay with every phase at its median, ms: the
    /// phase medians plus the median time outside the phases. Finer
    /// phases make this steadier than the median whole replay, since a
    /// burst of host contention then hits a given phase in few replays.
    pub fn median_total_ms(&self, on_granted_cpu: bool) -> f64 {
        let rest: Vec<f64> = (0..self.len())
            .map(|r| {
                let phases: f64 = self.phases_ms[r].iter().sum();
                (self.total_ms[r] - phases) * self.scale(r, on_granted_cpu)
            })
            .collect();
        self.phase_medians(on_granted_cpu).iter().sum::<f64>() + median(&rest)
    }
}

/// How many of `samples` lie strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&x| x > threshold).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(count_above(&xs, 2.5), 2);
    }

    #[test]
    fn replays_take_element_wise_medians() {
        let mut replays = Replays::default();
        replays.push(vec![1.0, 9.0, 5.0], 16.0, 1.0);
        replays.push(vec![2.0, 3.0], 8.0, 1.0);
        replays.push(vec![30.0, 4.0, 6.0], 48.0, 0.5);
        assert_eq!(replays.phase_medians(false), [2.0, 4.0, 5.5]);
        // Rest outside the phases: 1, 3 and 8 ms.
        assert_eq!(replays.median_total_ms(false), 14.5);
        // On granted CPU the third replay counts at half its wall time.
        assert_eq!(replays.phase_medians(true), [2.0, 3.0, 4.0]);
        assert_eq!(replays.median_total_ms(true), 12.0);
        assert!(Replays::default().phase_medians(true).is_empty());
    }
}
