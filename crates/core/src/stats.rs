//! Pipeline-schedule statistics: which components fire in which clock
//! phase, how wide each level is, and how the waves occupy the netlist
//! — the planning data a physical implementation of the Fig 4 clocking
//! scheme needs.

use std::fmt;

use crate::component::ComponentKind;
use crate::netlist::Netlist;

/// Per-level and per-phase occupancy of a netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Number of priced components at each level (index = level; level 0
    /// holds none — inputs and constants are not priced).
    pub level_widths: Vec<usize>,
    /// Number of priced components driven by each of the three clock
    /// phases (`level mod 3`).
    pub phase_loads: [usize; 3],
    /// Netlist depth.
    pub depth: u32,
}

impl Schedule {
    /// Computes the schedule of `netlist`.
    pub fn of(netlist: &Netlist) -> Schedule {
        let levels = netlist.levels();
        let depth = netlist.depth();
        let mut level_widths = vec![0usize; depth as usize + 1];
        let mut phase_loads = [0usize; 3];
        for id in netlist.ids() {
            if !netlist.component(id).kind().is_priced() {
                continue;
            }
            let l = levels[id.index()] as usize;
            if l < level_widths.len() {
                level_widths[l] += 1;
            }
            phase_loads[l % 3] += 1;
        }
        Schedule {
            level_widths,
            phase_loads,
            depth,
        }
    }

    /// Widest level (the wavefront bottleneck a clock driver must
    /// switch simultaneously).
    pub fn max_level_width(&self) -> usize {
        self.level_widths.iter().copied().max().unwrap_or(0)
    }

    /// Ratio of the heaviest to the lightest phase load (1.0 = perfectly
    /// balanced clock network load).
    ///
    /// Returns `f64::INFINITY` when a phase drives nothing.
    pub fn phase_imbalance(&self) -> f64 {
        let max = *self.phase_loads.iter().max().expect("three phases") as f64;
        let min = *self.phase_loads.iter().min().expect("three phases") as f64;
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// On a *balanced* netlist: the number of components a single wave
    /// occupies at one instant (one level's width per phase the wave
    /// currently touches).
    pub fn mean_level_width(&self) -> f64 {
        let active: Vec<usize> = self
            .level_widths
            .iter()
            .copied()
            .filter(|&w| w > 0)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<usize>() as f64 / active.len() as f64
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "depth {}, phase loads φ1/φ2/φ3 = {}/{}/{}, widest level {}",
            self.depth,
            self.phase_loads[1],
            self.phase_loads[2],
            self.phase_loads[0],
            self.max_level_width()
        )
    }
}

/// Summary of how a netlist changed through the flow, per kind — the
/// per-benchmark row behind Fig 8.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GrowthReport {
    /// Original priced size.
    pub original_size: usize,
    /// Transformed priced size.
    pub transformed_size: usize,
    /// Buffers added.
    pub buffers_added: usize,
    /// Fan-out gates added.
    pub fogs_added: usize,
    /// Depth before.
    pub depth_before: u32,
    /// Depth after.
    pub depth_after: u32,
}

impl GrowthReport {
    /// Builds the report from a before/after netlist pair.
    ///
    /// # Panics
    ///
    /// Panics if the transformed netlist has fewer buffers/FOGs than the
    /// original (the flow only adds components).
    pub fn between(original: &Netlist, transformed: &Netlist) -> GrowthReport {
        let (o, t) = (original.counts(), transformed.counts());
        assert!(
            t.buf >= o.buf && t.fog >= o.fog,
            "flow only adds components"
        );
        GrowthReport {
            original_size: o.priced_total(),
            transformed_size: t.priced_total(),
            buffers_added: t.buf - o.buf,
            fogs_added: t.fog - o.fog,
            depth_before: original.depth(),
            depth_after: transformed.depth(),
        }
    }

    /// Normalized size (the Fig 8 quantity).
    pub fn size_ratio(&self) -> f64 {
        self.transformed_size as f64 / self.original_size.max(1) as f64
    }
}

/// Counts components of one kind at each level (e.g. where the buffers
/// ended up) — useful for floorplanning wave pipelines.
pub fn kind_level_profile(netlist: &Netlist, kind: ComponentKind) -> Vec<usize> {
    let levels = netlist.levels();
    let depth = netlist.depth() as usize;
    let mut profile = vec![0usize; depth + 1];
    for id in netlist.ids() {
        if netlist.component(id).kind() == kind {
            let l = levels[id.index()] as usize;
            if l < profile.len() {
                profile[l] += 1;
            }
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer_insertion::insert_buffers;
    use crate::from_mig::netlist_from_mig;

    fn balanced_sample() -> Netlist {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 120,
            depth: 9,
            seed: 70,
        });
        let mut n = netlist_from_mig(&g);
        insert_buffers(&mut n);
        n
    }

    #[test]
    fn schedule_counts_every_priced_component() {
        let n = balanced_sample();
        let s = Schedule::of(&n);
        let total: usize = s.level_widths.iter().sum();
        assert_eq!(total, n.counts().priced_total());
        assert_eq!(s.phase_loads.iter().sum::<usize>(), total);
        assert_eq!(s.depth, n.depth());
        assert!(s.max_level_width() >= s.mean_level_width() as usize);
    }

    #[test]
    fn balanced_netlists_have_finite_phase_imbalance() {
        let n = balanced_sample();
        let s = Schedule::of(&n);
        assert!(s.phase_imbalance().is_finite());
        assert!(s.phase_imbalance() >= 1.0);
    }

    #[test]
    fn empty_level_zero() {
        let n = balanced_sample();
        let s = Schedule::of(&n);
        assert_eq!(s.level_widths[0], 0, "inputs/constants are not priced");
    }

    #[test]
    fn growth_report_tracks_the_flow() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 150,
            depth: 9,
            seed: 71,
        });
        let r = crate::PipelineSpec::default()
            .build()
            .unwrap()
            .run(&g)
            .unwrap()
            .result;
        let report = GrowthReport::between(&r.original, &r.pipelined);
        assert_eq!(report.buffers_added, r.buffers.unwrap().total());
        assert_eq!(report.fogs_added, r.fanout.unwrap().fogs_inserted);
        assert!(report.size_ratio() > 1.0);
        assert!(report.depth_after >= report.depth_before);
    }

    #[test]
    fn buffer_profile_sums_to_buffer_count() {
        let n = balanced_sample();
        let profile = kind_level_profile(&n, ComponentKind::Buf);
        assert_eq!(profile.iter().sum::<usize>(), n.counts().buf);
        assert_eq!(profile[0], 0);
    }

    #[test]
    fn display_is_informative() {
        let n = balanced_sample();
        let line = Schedule::of(&n).to_string();
        assert!(line.contains("depth"));
        assert!(line.contains("phase loads"));
    }
}
