//! Plain-text failure-log serialization (the tester datalog format).
//!
//! ```text
//! # m3d-faillog v1
//! fail pattern 12 flop 7          # bypass observation
//! fail pattern 19 channel 2 cycle 5   # compacted observation
//! ```

use std::error::Error;
use std::fmt;

use m3d_dft::ObsPoint;
use m3d_netlist::FlopId;

use crate::log::{FailEntry, FailureLog};

/// Error raised while parsing a failure-log file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLogError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.reason)
    }
}

impl Error for ParseLogError {}

/// Serializes a failure log to the text format.
///
/// # Examples
///
/// ```
/// use m3d_tdf::{read_failure_log, write_failure_log, FailureLog};
///
/// # fn main() -> Result<(), m3d_tdf::ParseLogError> {
/// let empty = FailureLog::default();
/// let text = write_failure_log(&empty);
/// assert_eq!(read_failure_log(&text)?, empty);
/// # Ok(())
/// # }
/// ```
pub fn write_failure_log(log: &FailureLog) -> String {
    let mut out = String::from("# m3d-faillog v1\n");
    for e in log.entries() {
        match e.obs {
            ObsPoint::Flop(f) => {
                out.push_str(&format!("fail pattern {} flop {}\n", e.pattern, f.index()));
            }
            ObsPoint::ChannelCycle { channel, cycle } => {
                out.push_str(&format!(
                    "fail pattern {} channel {channel} cycle {cycle}\n",
                    e.pattern
                ));
            }
        }
    }
    out
}

/// Splits a line into whitespace-separated tokens, each paired with its
/// 1-based character column in the untrimmed line.
fn tokens_with_columns(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut col = 0usize;
    let mut start: Option<(usize, usize)> = None; // (byte offset, column)
    for (b, ch) in line.char_indices() {
        col += 1;
        if ch.is_whitespace() {
            if let Some((s, c)) = start.take() {
                out.push((c, &line[s..b]));
            }
        } else if start.is_none() {
            start = Some((b, col));
        }
    }
    if let Some((s, c)) = start {
        out.push((c, &line[s..]));
    }
    out
}

/// Parses one numeric token at its field's own width, so a value too large
/// for the field is an error at its column rather than a wrapped,
/// valid-looking observation.
fn parse_field<T: std::str::FromStr>(
    line: usize,
    (col, tok): (usize, &str),
    what: &str,
) -> Result<T, ParseLogError> {
    tok.parse().map_err(|_| ParseLogError {
        line,
        col,
        reason: format!("bad {what} `{tok}`"),
    })
}

/// Parses the text format back into a [`FailureLog`].
///
/// Never panics, whatever the input bytes: every failure is reported as a
/// [`ParseLogError`] carrying the 1-based line and column of the offending
/// token (the fuzz suite in `tests/log_fuzz.rs` holds this to arbitrary
/// input).
///
/// # Errors
///
/// Returns [`ParseLogError`] with the offending position on malformed
/// input.
pub fn read_failure_log(text: &str) -> Result<FailureLog, ParseLogError> {
    let mut entries = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let lineno = ln + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let toks = tokens_with_columns(raw);
        let words: Vec<&str> = toks.iter().map(|&(_, t)| t).collect();
        match words.as_slice() {
            ["fail", "pattern", _, "flop", _] => entries.push(FailEntry {
                pattern: parse_field(lineno, toks[2], "pattern")?,
                obs: ObsPoint::Flop(FlopId::new(
                    parse_field::<u32>(lineno, toks[4], "flop")? as usize
                )),
            }),
            ["fail", "pattern", _, "channel", _, "cycle", _] => entries.push(FailEntry {
                pattern: parse_field(lineno, toks[2], "pattern")?,
                obs: ObsPoint::ChannelCycle {
                    channel: parse_field(lineno, toks[4], "channel")?,
                    cycle: parse_field(lineno, toks[6], "cycle")?,
                },
            }),
            _ => {
                return Err(ParseLogError {
                    line: lineno,
                    col: toks.first().map_or(1, |&(c, _)| c),
                    reason: "expected `fail pattern <p> flop <f>` or \
                             `fail pattern <p> channel <c> cycle <y>`"
                        .to_owned(),
                })
            }
        }
    }
    Ok(entries.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FailureLog {
        vec![
            FailEntry {
                pattern: 3,
                obs: ObsPoint::Flop(FlopId::new(9)),
            },
            FailEntry {
                pattern: 12,
                obs: ObsPoint::ChannelCycle {
                    channel: 1,
                    cycle: 4,
                },
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn round_trip_is_lossless() {
        let log = sample();
        let text = write_failure_log(&log);
        assert_eq!(read_failure_log(&text).expect("round trip"), log);
        // Canonical: serializing again is byte-identical.
        assert_eq!(
            write_failure_log(&read_failure_log(&text).expect("parse")),
            text
        );
    }

    #[test]
    fn bad_lines_are_reported_with_position() {
        let err = read_failure_log("# ok\nfail pattern x flop 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        // `x` starts at character 14 of "fail pattern x flop 2".
        assert_eq!(err.col, 14);
        assert!(err.to_string().contains("bad pattern"));
        assert!(err.to_string().contains("line 2, col 14"));
        let err = read_failure_log("nonsense\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 1));
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn columns_account_for_leading_whitespace() {
        let err = read_failure_log("   fail pattern 3 flop NOPE\n").unwrap_err();
        assert_eq!(err.line, 1);
        // "NOPE" starts at character 24 (3 leading spaces + "fail pattern 3 flop ").
        assert_eq!(err.col, 24);
        let err = read_failure_log("\t\tgarbage\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 3));
    }

    #[test]
    fn channel_and_cycle_past_u16_are_errors_not_wrapped() {
        // 65538 would wrap to channel 2, a real observation.
        let err = read_failure_log("fail pattern 3 channel 65538 cycle 1\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 24));
        assert!(err.to_string().contains("bad channel `65538`"));
        let err = read_failure_log("\nfail pattern 3 channel 1 cycle 65536\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 32));
        assert!(err.to_string().contains("bad cycle `65536`"));
        let max = read_failure_log("fail pattern 3 channel 65535 cycle 65535\n").expect("fits u16");
        assert_eq!(
            max.entries()[0].obs,
            ObsPoint::ChannelCycle {
                channel: u16::MAX,
                cycle: u16::MAX
            }
        );
    }

    #[test]
    fn parsing_sorts_and_dedups_like_from_iterator() {
        let text = "fail pattern 9 flop 1\nfail pattern 2 flop 0\nfail pattern 9 flop 1\n";
        let log = read_failure_log(text).expect("parses");
        assert_eq!(log.len(), 2);
        assert_eq!(log.failing_patterns(), vec![2, 9]);
    }
}
