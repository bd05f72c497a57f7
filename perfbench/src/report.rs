//! The result line: `correct`, `attempted`, `failed` and every metric with
//! its unit, as one JSON object on the last line of standard output.

pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not a valid measurement (beyond failed
    /// operations), printed to standard error.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Checks that exactly `expected` metrics were measured, each once and
    /// finite, then prints the result line. Returns the process exit code:
    /// 0 only when every operation succeeded and the run is valid.
    pub fn finish(mut self, expected: &[(&str, &str)]) -> i32 {
        for &(name, unit) in expected {
            match self.metrics.iter().filter(|m| m.0 == name).count() {
                1 => {}
                n => self
                    .problems
                    .push(format!("metric {name} measured {n} times")),
            }
            if let Some(&(_, value, got)) = self.metrics.iter().find(|m| m.0 == name) {
                if got != unit {
                    self.problems
                        .push(format!("metric {name} has unit {got}, expected {unit}"));
                }
                if !value.is_finite() {
                    self.problems
                        .push(format!("metric {name} was not measured ({value})"));
                }
            }
        }
        for &(name, _, _) in &self.metrics {
            if !expected.iter().any(|e| e.0 == name) {
                self.problems.push(format!("metric {name} is not declared"));
            }
        }
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".to_string());
        }
        for problem in &self.problems {
            eprintln!("perfbench: {problem}");
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, &(name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            line.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        line.push_str("}}");
        println!("{line}");
        if correct {
            0
        } else {
            1
        }
    }
}
