//! µSKU input files (paper Sec. 4, Fig. 13).
//!
//! "The user provides an input file with the following three input
//! parameters": the target microservice, the processor platform, and the
//! sweep configuration (independent vs. exhaustive). This module parses a
//! simple `key = value` file format and resolves it against the workload
//! registry.
//!
//! ```text
//! # µSKU input file
//! microservice = web
//! platform     = skylake18
//! sweep        = independent
//! # optional:
//! knobs        = core_frequency, cdp, thp
//! metric       = mips
//! seed         = 42
//! ```

use crate::error::UskuError;
use crate::metric::PerformanceMetric;
use softsku_archsim::platform::PlatformKind;
use softsku_knobs::Knob;
use softsku_workloads::Microservice;

/// Sweep configuration (paper Sec. 4, input parameter 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepConfig {
    /// Scale knobs one-by-one, presuming additive effects (the practical
    /// default: "we have had success in tuning knobs independently").
    Independent,
    /// Explore the cross product of knob settings ("requires an
    /// impractically large number of A/B tests" — bounded by a test budget).
    Exhaustive,
    /// Hill climbing over single-knob moves (the Sec. 7 extension).
    HillClimbing,
}

impl SweepConfig {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "independent" => Some(SweepConfig::Independent),
            "exhaustive" => Some(SweepConfig::Exhaustive),
            "hill_climbing" | "hillclimbing" => Some(SweepConfig::HillClimbing),
            _ => None,
        }
    }
}

impl std::fmt::Display for SweepConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SweepConfig::Independent => "independent",
            SweepConfig::Exhaustive => "exhaustive",
            SweepConfig::HillClimbing => "hill_climbing",
        };
        f.write_str(s)
    }
}

/// Parsed and validated µSKU input.
#[derive(Debug, Clone, PartialEq)]
pub struct InputFile {
    /// Target microservice (input parameter 1).
    pub microservice: Microservice,
    /// Processor platform (input parameter 2).
    pub platform: PlatformKind,
    /// Sweep configuration (input parameter 3).
    pub sweep: SweepConfig,
    /// Knob subset to study; `None` = all applicable knobs.
    pub knobs: Option<Vec<Knob>>,
    /// Performance metric for the A/B tests.
    pub metric: PerformanceMetric,
    /// RNG seed for the whole experiment.
    pub seed: u64,
}

impl InputFile {
    /// Builds an input directly (API use; the file parser delegates here).
    pub fn new(microservice: Microservice, platform: PlatformKind, sweep: SweepConfig) -> Self {
        InputFile {
            microservice,
            platform,
            sweep,
            knobs: None,
            metric: PerformanceMetric::Mips,
            seed: 42,
        }
    }

    /// Parses the `key = value` input format.
    ///
    /// # Errors
    ///
    /// [`UskuError::InputParse`] with the offending line for unknown keys,
    /// bad values, missing required keys, a repeated key, or a knob listed
    /// twice.
    ///
    /// # Example
    ///
    /// ```
    /// use usku::input::InputFile;
    ///
    /// let input = InputFile::parse(
    ///     "microservice = web\nplatform = skylake18\nsweep = independent\n",
    /// )
    /// .unwrap();
    /// assert_eq!(input.microservice.name(), "Web");
    /// ```
    pub fn parse(text: &str) -> Result<Self, UskuError> {
        let mut microservice = None;
        let mut platform = None;
        let mut sweep = None;
        let mut knobs = None;
        let mut metric = None;
        let mut seed = None;

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(UskuError::InputParse {
                    line: line_no,
                    detail: format!("expected `key = value`, got {line:?}"),
                });
            };
            let key = key.trim().to_lowercase();
            let value = value.trim();
            let dup = |name: &str| UskuError::InputParse {
                line: line_no,
                detail: format!("duplicate key {name:?}"),
            };
            match key.as_str() {
                "microservice" | "service" => {
                    if microservice.is_some() {
                        return Err(dup("microservice"));
                    }
                    microservice = Some(Microservice::from_name(value).map_err(|e| {
                        UskuError::InputParse {
                            line: line_no,
                            detail: e.to_string(),
                        }
                    })?);
                }
                "platform" => {
                    if platform.is_some() {
                        return Err(dup("platform"));
                    }
                    platform =
                        Some(parse_platform(value).ok_or_else(|| UskuError::InputParse {
                            line: line_no,
                            detail: format!("unknown platform {value:?}"),
                        })?);
                }
                "sweep" => {
                    if sweep.is_some() {
                        return Err(dup("sweep"));
                    }
                    sweep = Some(SweepConfig::parse(&value.to_lowercase()).ok_or_else(|| {
                        UskuError::InputParse {
                            line: line_no,
                            detail: format!(
                                "unknown sweep {value:?} (independent | exhaustive | hill_climbing)"
                            ),
                        }
                    })?);
                }
                "knobs" => {
                    if knobs.is_some() {
                        return Err(dup("knobs"));
                    }
                    let mut list = Vec::new();
                    for item in value.split(',') {
                        let name = item.trim().to_lowercase();
                        if name.is_empty() {
                            continue;
                        }
                        let knob = Knob::from_name(&name).ok_or_else(|| UskuError::InputParse {
                            line: line_no,
                            detail: format!("unknown knob {name:?}"),
                        })?;
                        if list.contains(&knob) {
                            return Err(UskuError::InputParse {
                                line: line_no,
                                detail: format!("knob {name:?} listed twice"),
                            });
                        }
                        list.push(knob);
                    }
                    if list.is_empty() {
                        return Err(UskuError::InputParse {
                            line: line_no,
                            detail: "empty knob list".into(),
                        });
                    }
                    knobs = Some(list);
                }
                "metric" => {
                    if metric.is_some() {
                        return Err(dup("metric"));
                    }
                    metric = Some(
                        PerformanceMetric::from_name(&value.to_lowercase()).ok_or_else(|| {
                            UskuError::InputParse {
                                line: line_no,
                                detail: format!(
                                    "unknown metric {value:?} (mips | qps | mips_per_watt)"
                                ),
                            }
                        })?,
                    );
                }
                "seed" => {
                    if seed.is_some() {
                        return Err(dup("seed"));
                    }
                    seed = Some(value.parse().map_err(|_| UskuError::InputParse {
                        line: line_no,
                        detail: format!("seed must be an unsigned integer, got {value:?}"),
                    })?);
                }
                other => {
                    return Err(UskuError::InputParse {
                        line: line_no,
                        detail: format!("unknown key {other:?}"),
                    });
                }
            }
        }

        let microservice = microservice.ok_or(UskuError::InputParse {
            line: 0,
            detail: "missing required key `microservice`".into(),
        })?;
        let platform = platform.unwrap_or_else(|| microservice.default_platform());
        let sweep = sweep.unwrap_or(SweepConfig::Independent);
        // Validate the combination early.
        microservice.profile(platform)?;
        Ok(InputFile {
            microservice,
            platform,
            sweep,
            knobs,
            metric: metric.unwrap_or(PerformanceMetric::Mips),
            seed: seed.unwrap_or(42),
        })
    }
}

fn parse_platform(s: &str) -> Option<PlatformKind> {
    match s.to_lowercase().as_str() {
        "skylake18" => Some(PlatformKind::Skylake18),
        "skylake20" => Some(PlatformKind::Skylake20),
        "broadwell16" => Some(PlatformKind::Broadwell16),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_file_parses_with_defaults() {
        let input = InputFile::parse("microservice = ads1\n").unwrap();
        assert_eq!(input.microservice, Microservice::Ads1);
        assert_eq!(input.platform, PlatformKind::Skylake18);
        assert_eq!(input.sweep, SweepConfig::Independent);
        assert!(input.knobs.is_none());
        assert_eq!(input.metric, PerformanceMetric::Mips);
    }

    #[test]
    fn full_file_parses() {
        let text = "\
# comment
microservice = web     # trailing comment
platform = broadwell16
sweep = hill_climbing
knobs = core_frequency, cdp , thp
metric = qps
seed = 7
";
        let input = InputFile::parse(text).unwrap();
        assert_eq!(input.platform, PlatformKind::Broadwell16);
        assert_eq!(input.sweep, SweepConfig::HillClimbing);
        assert_eq!(
            input.knobs.as_deref(),
            Some(&[Knob::CoreFrequency, Knob::Cdp, Knob::Thp][..])
        );
        assert_eq!(input.metric, PerformanceMetric::Qps);
        assert_eq!(input.seed, 7);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = InputFile::parse("microservice = web\nbogus_key = 1\n").unwrap_err();
        match err {
            UskuError::InputParse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_bad_values() {
        assert!(InputFile::parse("microservice = webb\n").is_err());
        assert!(InputFile::parse("microservice = web\nplatform = epyc\n").is_err());
        assert!(InputFile::parse("microservice = web\nsweep = random\n").is_err());
        assert!(InputFile::parse("microservice = web\nknobs = turbo\n").is_err());
        assert!(InputFile::parse("microservice = web\nseed = -1\n").is_err());
        assert!(
            InputFile::parse("platform = skylake18\n").is_err(),
            "service required"
        );
        assert!(InputFile::parse("microservice = web\nmicroservice = ads1\n").is_err());
        assert!(InputFile::parse("just a line\n").is_err());
    }

    #[test]
    fn rejects_unsupported_combination() {
        // Cache1 runs only on Skylake20.
        assert!(InputFile::parse("microservice = cache1\nplatform = skylake18\n").is_err());
    }
}
