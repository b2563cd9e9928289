//! The adder-based streaming accumulator (paper Sec. V-B, Fig. 11,
//! Table III).
//!
//! A floating-point adder with an `L`-cycle pipeline cannot naively
//! accumulate a stream (each add would wait `L` cycles for the previous
//! sum). The η-LSTM design instead pairs whatever operands are
//! available — fresh stream inputs and completed partial sums — and
//! issues one add per cycle, keeping up to `L` partial sums in flight.
//! When the stream ends, the surviving partials are reduced in a final
//! tree. For `n ≫ L` the drain adds only `O(L·log₂ L)` cycles — the
//! paper's "<2.87 % latency overhead beyond 1024 inputs" claim, which
//! [`AccumulatorSim`] verifies by direct simulation.

use serde::{Deserialize, Serialize};

/// Pipeline latency (cycles) of the FP32 adder in the paper's design.
pub const PAPER_ADD_LATENCY: u32 = 8;

/// One row of the Fig. 11-style timing chart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingEvent {
    /// Cycle at which the add issued.
    pub cycle: u64,
    /// Human-readable first operand (e.g. `"A"`, `"A+B"`).
    pub lhs: String,
    /// Human-readable second operand.
    pub rhs: String,
    /// Cycle at which the result exits the adder.
    pub done_cycle: u64,
}

/// Result of simulating one accumulation stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccumulationRun {
    /// Total cycles from first input to final sum.
    pub cycles: u64,
    /// The accumulated value.
    pub sum: f32,
    /// Issue log (the Fig. 11 chart).
    pub events: Vec<TimingEvent>,
}

impl AccumulationRun {
    /// Cycles beyond the ideal `n + L` streaming bound, as a fraction of
    /// the total.
    pub fn drain_overhead(&self, n_inputs: u64, latency: u32) -> f64 {
        let ideal = n_inputs + latency as u64;
        if self.cycles <= ideal {
            0.0
        } else {
            (self.cycles - ideal) as f64 / self.cycles as f64
        }
    }
}

/// Cycle-accurate simulator of the adder-based streaming accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccumulatorSim {
    /// Adder pipeline latency in cycles.
    pub add_latency: u32,
}

impl Default for AccumulatorSim {
    fn default() -> Self {
        AccumulatorSim {
            add_latency: PAPER_ADD_LATENCY,
        }
    }
}

#[derive(Debug, Clone)]
struct Operand {
    value: f32,
    label: String,
}

#[derive(Debug, Clone)]
struct InFlight {
    done_cycle: u64,
    value: f32,
    label: String,
}

impl AccumulatorSim {
    /// Creates a simulator with the given adder latency.
    ///
    /// # Panics
    ///
    /// Panics if `add_latency == 0`.
    pub fn new(add_latency: u32) -> Self {
        assert!(add_latency > 0, "adder latency must be at least one cycle");
        AccumulatorSim { add_latency }
    }

    /// Simulates accumulating `values` arriving one per cycle starting at
    /// cycle 1, with symbolic labels for the timing chart.
    ///
    /// Returns the exact cycle count, the sum, and the issue log. For an
    /// empty stream the sum is `0.0` in zero cycles; a single value
    /// passes through without touching the adder.
    pub fn run_labeled(&self, values: &[f32], labels: &[String]) -> AccumulationRun {
        assert_eq!(values.len(), labels.len(), "label count mismatch");
        let n = values.len();
        if n == 0 {
            return AccumulationRun {
                cycles: 0,
                sum: 0.0,
                events: Vec::new(),
            };
        }
        if n == 1 {
            return AccumulationRun {
                cycles: 1,
                sum: values[0],
                events: Vec::new(),
            };
        }

        let latency = self.add_latency as u64;
        let mut pool: Vec<Operand> = Vec::new();
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut events = Vec::new();
        let mut cycle: u64 = 0;
        let mut next_input = 0usize;
        let mut last_result_cycle = 0u64;

        loop {
            cycle += 1;
            // Retire completed adds into the pool.
            let mut i = 0;
            while i < in_flight.len() {
                if in_flight[i].done_cycle == cycle {
                    let f = in_flight.remove(i);
                    last_result_cycle = cycle;
                    pool.push(Operand {
                        value: f.value,
                        label: f.label,
                    });
                } else {
                    i += 1;
                }
            }
            // One stream input arrives per cycle.
            if next_input < n {
                pool.push(Operand {
                    value: values[next_input],
                    label: labels[next_input].clone(),
                });
                next_input += 1;
            }
            // Issue one add per cycle when two operands are ready.
            if pool.len() >= 2 {
                let a = pool.remove(0);
                let b = pool.remove(0);
                let done = cycle + latency;
                events.push(TimingEvent {
                    cycle,
                    lhs: a.label.clone(),
                    rhs: b.label.clone(),
                    done_cycle: done,
                });
                in_flight.push(InFlight {
                    done_cycle: done,
                    value: a.value + b.value,
                    label: format!("{}+{}", a.label, b.label),
                });
            }
            // Finished: everything consumed and exactly one value left.
            if next_input == n && in_flight.is_empty() && pool.len() == 1 {
                return AccumulationRun {
                    cycles: last_result_cycle.max(cycle),
                    sum: pool[0].value,
                    events,
                };
            }
        }
    }

    /// Simulates accumulating `values` with automatic labels
    /// (`A, B, C, …` then `v26, v27, …`).
    pub fn run(&self, values: &[f32]) -> AccumulationRun {
        let labels: Vec<String> = (0..values.len())
            .map(|i| {
                if i < 26 {
                    char::from(b'A' + i as u8).to_string()
                } else {
                    format!("v{i}")
                }
            })
            .collect();
        self.run_labeled(values, &labels)
    }

    /// Cycle count for accumulating `n` inputs (values irrelevant to
    /// timing).
    pub fn cycles_for(&self, n: usize) -> u64 {
        self.run(&vec![1.0f32; n]).cycles
    }
}

/// Synthesis resource/power figures for an accumulator implementation
/// (paper Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccumulatorResources {
    /// Design name.
    pub name: String,
    /// Lookup tables.
    pub lut: u32,
    /// Flip-flops.
    pub ff: u32,
    /// Total dynamic power, watts.
    pub dynamic_power_w: f64,
    /// Reference pipeline/drain latency figure from the table, cycles.
    pub latency_cycles: u32,
}

impl AccumulatorResources {
    /// The Xilinx floating-point accumulator IP (Table III row 1):
    /// translates FP32 accumulation into 64-bit fixed point —
    /// resource-hungry but low-latency.
    pub fn xilinx_ip() -> Self {
        AccumulatorResources {
            name: "Xilinx IP".to_string(),
            lut: 821,
            ff: 969,
            dynamic_power_w: 0.100,
            latency_cycles: 20,
        }
    }

    /// The η-LSTM adder-based design (Table III row 2).
    pub fn eta_design() -> Self {
        AccumulatorResources {
            name: "Adder-based (ours)".to_string(),
            lut: 463,
            ff: 608,
            dynamic_power_w: 0.083,
            latency_cycles: 50,
        }
    }

    /// Fractional LUT saving of `self` against `other`.
    pub fn lut_saving_vs(&self, other: &AccumulatorResources) -> f64 {
        1.0 - self.lut as f64 / other.lut as f64
    }

    /// Fractional FF saving of `self` against `other`.
    pub fn ff_saving_vs(&self, other: &AccumulatorResources) -> f64 {
        1.0 - self.ff as f64 / other.ff as f64
    }

    /// Fractional power saving of `self` against `other`.
    pub fn power_saving_vs(&self, other: &AccumulatorResources) -> f64 {
        1.0 - self.dynamic_power_w / other.dynamic_power_w
    }
}

impl AccumulatorSim {
    /// [`AccumulatorSim::run`] plus metric recording.
    ///
    /// For a non-empty stream, observes the drain overhead
    /// ([`AccumulationRun::drain_overhead`]) into the
    /// `accel_accumulator_stall_fraction` histogram and counts the cycles
    /// beyond the ideal `n + L` streaming bound into
    /// `accel_accumulator_stall_cycles_total`.
    pub fn run_instrumented(
        &self,
        values: &[f32],
        telemetry: Option<&eta_telemetry::Telemetry>,
    ) -> AccumulationRun {
        let run = self.run(values);
        if let Some(t) = telemetry {
            if !values.is_empty() {
                let n = values.len() as u64;
                t.observe(
                    eta_telemetry::keys::ACCEL_ACCUMULATOR_STALL_FRACTION,
                    run.drain_overhead(n, self.add_latency),
                );
                let ideal = n + self.add_latency as u64;
                t.incr(
                    eta_telemetry::keys::ACCEL_ACCUMULATOR_STALL_CYCLES_TOTAL,
                    run.cycles.saturating_sub(ideal),
                );
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_is_exact_for_integers() {
        let sim = AccumulatorSim::new(8);
        let values: Vec<f32> = (1..=100).map(|v| v as f32).collect();
        let run = sim.run(&values);
        assert_eq!(run.sum, 5050.0);
    }

    #[test]
    fn empty_and_single_streams() {
        let sim = AccumulatorSim::default();
        assert_eq!(sim.run(&[]).cycles, 0);
        let one = sim.run(&[3.5]);
        assert_eq!(one.cycles, 1);
        assert_eq!(one.sum, 3.5);
        assert!(one.events.is_empty());
    }

    #[test]
    fn figure11_example_two_cycle_adder_eight_values() {
        // The paper's Fig. 11 walks eight values (A..H) through a
        // 2-cycle adder: first add issues at cycle 1 (A,B), the final
        // sum appears at cycle 12.
        let sim = AccumulatorSim::new(2);
        let run = sim.run(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(run.sum, 36.0);
        assert_eq!(run.events.len(), 7, "n−1 adds for n values");
        let first = &run.events[0];
        assert_eq!((first.lhs.as_str(), first.rhs.as_str()), ("A", "B"));
        assert_eq!(
            run.cycles, 12,
            "Fig. 11 shows the final sum of A..H ready at cycle 12"
        );
    }

    #[test]
    fn streaming_throughput_approaches_one_per_cycle() {
        let sim = AccumulatorSim::new(8);
        let c1024 = sim.cycles_for(1024);
        // The paper claims <2.87 % overhead beyond 1024 inputs.
        let run = sim.run(&vec![1.0; 1024]);
        let overhead = run.drain_overhead(1024, 8);
        assert!(
            overhead < 0.0287,
            "drain overhead {overhead} exceeds the paper's 2.87 % bound ({c1024} cycles)"
        );
    }

    #[test]
    fn overhead_shrinks_with_stream_length() {
        let sim = AccumulatorSim::new(8);
        let short = sim.run(&vec![1.0; 64]).drain_overhead(64, 8);
        let long = sim.run(&vec![1.0; 4096]).drain_overhead(4096, 8);
        assert!(long < short);
    }

    #[test]
    fn cycles_grow_monotonically_with_inputs() {
        let sim = AccumulatorSim::new(4);
        let mut prev = 0;
        for n in [2usize, 4, 8, 16, 32, 64] {
            let c = sim.cycles_for(n);
            assert!(c > prev, "cycles must grow: {n} -> {c}");
            prev = c;
        }
    }

    #[test]
    fn one_add_issues_per_cycle_at_steady_state() {
        let sim = AccumulatorSim::new(8);
        let run = sim.run(&vec![1.0; 256]);
        // No two events share an issue cycle.
        let mut cycles: Vec<u64> = run.events.iter().map(|e| e.cycle).collect();
        cycles.dedup();
        assert_eq!(cycles.len(), run.events.len());
    }

    #[test]
    fn sum_matches_sequential_reference_on_floats() {
        let sim = AccumulatorSim::new(8);
        let values: Vec<f32> = (0..500)
            .map(|i| ((i * 37 % 100) as f32 - 50.0) / 7.0)
            .collect();
        let run = sim.run(&values);
        let reference: f64 = values.iter().map(|&v| v as f64).sum();
        assert!(
            ((run.sum as f64) - reference).abs() < 1e-2,
            "tree sum {} vs reference {reference}",
            run.sum
        );
    }

    #[test]
    fn table3_resource_savings_match_paper() {
        let ours = AccumulatorResources::eta_design();
        let ip = AccumulatorResources::xilinx_ip();
        assert!(
            (ours.lut_saving_vs(&ip) - 0.4361).abs() < 0.001,
            "LUT saving"
        );
        assert!((ours.ff_saving_vs(&ip) - 0.3725).abs() < 0.001, "FF saving");
        assert!(
            (ours.power_saving_vs(&ip) - 0.17).abs() < 0.001,
            "power saving"
        );
        assert!(ours.latency_cycles > ip.latency_cycles);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        let _ = AccumulatorSim::new(0);
    }
}
