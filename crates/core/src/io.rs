//! CSV import/export for sample matrices and moment estimates.
//!
//! Real adopters of the estimator get their late-stage data from testers
//! and their early-stage data from simulation logs — almost always as CSV.
//! This module provides a small, dependency-free reader/writer for the
//! workspace's `n × d` sample-matrix convention (header row of metric
//! names, one sample per line) and for moment estimates.

use crate::{BmfError, MomentEstimate, Result};
use bmf_linalg::{Matrix, Vector};
use std::io::{BufRead, BufReader, Read, Write};

/// A labelled sample matrix as read from / written to CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledSamples {
    /// Column (metric) names.
    pub names: Vec<String>,
    /// `n × d` samples.
    pub samples: Matrix,
}

/// Reads a labelled sample matrix from CSV: a header line of metric names
/// followed by one numeric row per sample. Accepts a mutable reference to
/// any reader (pass `&mut file`).
///
/// # Errors
///
/// * [`BmfError::InvalidSamples`] on I/O failure, ragged rows, an empty
///   file or unparseable numbers.
///
/// # Example
///
/// ```
/// use bmf_core::io::read_samples_csv;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let csv = "gain_db,power_w\n62.0,1.1e-4\n61.5,1.2e-4\n";
/// let data = read_samples_csv(&mut csv.as_bytes())?;
/// assert_eq!(data.names, vec!["gain_db", "power_w"]);
/// assert_eq!(data.samples.shape(), (2, 2));
/// # Ok(())
/// # }
/// ```
pub fn read_samples_csv<R: Read>(reader: &mut R) -> Result<LabelledSamples> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines();

    let header = match lines.next() {
        Some(Ok(h)) => h,
        Some(Err(e)) => {
            return Err(BmfError::InvalidSamples {
                reason: format!("failed to read CSV header: {e}"),
            })
        }
        None => {
            return Err(BmfError::InvalidSamples {
                reason: "empty CSV input".to_string(),
            })
        }
    };
    // Empty header fields must be a hard error, not silently skipped:
    // `a,,b` parsed as 2 columns would misalign every data row of the
    // file against its own header.
    let names: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
    if names.iter().all(String::is_empty) {
        return Err(BmfError::InvalidSamples {
            reason: "CSV header has no column names".to_string(),
        });
    }
    if let Some(pos) = names.iter().position(String::is_empty) {
        return Err(BmfError::InvalidSamples {
            reason: format!(
                "CSV header field {} (1-based) is empty; every column needs a name",
                pos + 1
            ),
        });
    }
    let d = names.len();

    let mut data: Vec<f64> = Vec::new();
    let mut rows = 0usize;
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(|e| BmfError::InvalidSamples {
            reason: format!("failed to read CSV line {}: {e}", lineno + 2),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() != d {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "line {} has {} fields, header has {d}",
                    lineno + 2,
                    fields.len()
                ),
            });
        }
        for (col, f) in fields.into_iter().enumerate() {
            let v: f64 = f.parse().map_err(|_| BmfError::InvalidSamples {
                reason: format!("line {}: cannot parse '{f}' as a number", lineno + 2),
            })?;
            // Rust's f64 parser accepts "NaN"/"inf" tokens; letting them
            // through would only fail much later, deep in MLE, with no
            // location. Reject at parse time, naming row and column.
            if !v.is_finite() {
                return Err(BmfError::InvalidSamples {
                    reason: format!(
                        "line {}, column '{}' (row {}, col {col}): non-finite value '{f}'",
                        lineno + 2,
                        names[col],
                        rows
                    ),
                });
            }
            data.push(v);
        }
        rows += 1;
    }
    if rows == 0 {
        return Err(BmfError::InvalidSamples {
            reason: "CSV contains a header but no sample rows".to_string(),
        });
    }
    let samples = Matrix::from_vec(rows, d, data)?;
    Ok(LabelledSamples { names, samples })
}

/// Writes a labelled sample matrix as CSV.
///
/// # Errors
///
/// Returns [`BmfError::InvalidSamples`] on a name/width mismatch or I/O
/// failure.
pub fn write_samples_csv<W: Write>(out: &mut W, data: &LabelledSamples) -> Result<()> {
    if data.names.len() != data.samples.ncols() {
        return Err(BmfError::InvalidSamples {
            reason: format!(
                "{} names for {} columns",
                data.names.len(),
                data.samples.ncols()
            ),
        });
    }
    let io_err = |e: std::io::Error| BmfError::InvalidSamples {
        reason: format!("CSV write failed: {e}"),
    };
    writeln!(out, "{}", data.names.join(",")).map_err(io_err)?;
    for i in 0..data.samples.nrows() {
        let row: Vec<String> = data
            .samples
            .row(i)
            .iter()
            .map(|v| format!("{v:.17e}"))
            .collect();
        writeln!(out, "{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

/// Writes a moment estimate as CSV: a `mean` line followed by `d`
/// covariance rows, each prefixed with its kind.
///
/// ```text
/// kind,<name0>,<name1>,...
/// mean,...,...
/// cov0,...,...
/// cov1,...,...
/// ```
///
/// # Errors
///
/// Returns [`BmfError::InvalidMoments`]/[`BmfError::InvalidSamples`] on
/// malformed input or I/O failure.
pub fn write_moments_csv<W: Write>(
    out: &mut W,
    names: &[String],
    moments: &MomentEstimate,
) -> Result<()> {
    moments.validate()?;
    if names.len() != moments.dim() {
        return Err(BmfError::InvalidSamples {
            reason: format!("{} names for {} dimensions", names.len(), moments.dim()),
        });
    }
    let io_err = |e: std::io::Error| BmfError::InvalidSamples {
        reason: format!("CSV write failed: {e}"),
    };
    writeln!(out, "kind,{}", names.join(",")).map_err(io_err)?;
    let mean_row: Vec<String> = moments.mean.iter().map(|v| format!("{v:.17e}")).collect();
    writeln!(out, "mean,{}", mean_row.join(",")).map_err(io_err)?;
    for i in 0..moments.dim() {
        let row: Vec<String> = (0..moments.dim())
            .map(|j| format!("{:.17e}", moments.cov[(i, j)]))
            .collect();
        writeln!(out, "cov{i},{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

/// Reads a moment estimate written by [`write_moments_csv`].
///
/// # Errors
///
/// Returns [`BmfError::InvalidMoments`] on structural problems, including
/// an empty or repeated metric name in the header.
pub fn read_moments_csv<R: Read>(reader: &mut R) -> Result<(Vec<String>, MomentEstimate)> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines();
    let header = lines
        .next()
        .transpose()
        .map_err(|e| BmfError::InvalidMoments {
            reason: format!("read failure: {e}"),
        })?
        .ok_or_else(|| BmfError::InvalidMoments {
            reason: "empty moments CSV".to_string(),
        })?;
    let mut names: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
    if names.first().map(String::as_str) != Some("kind") {
        return Err(BmfError::InvalidMoments {
            reason: "moments CSV must start with a 'kind' column".to_string(),
        });
    }
    names.remove(0);
    let d = names.len();
    if d == 0 {
        return Err(BmfError::InvalidMoments {
            reason: "moments CSV has no metric columns".to_string(),
        });
    }
    // Specs bind to metrics by name, so every name must be present and
    // unique. Positions are 1-based header fields, `kind` being field 1.
    for (j, name) in names.iter().enumerate() {
        if name.is_empty() {
            return Err(BmfError::InvalidMoments {
                reason: format!(
                    "moments CSV header field {} (1-based) is empty; every metric needs a name",
                    j + 2
                ),
            });
        }
        if let Some(first) = names[..j].iter().position(|n| n == name) {
            return Err(BmfError::InvalidMoments {
                reason: format!(
                    "moments CSV header fields {} and {} (1-based) both name metric '{name}'",
                    first + 2,
                    j + 2
                ),
            });
        }
    }

    let parse_row = |line: &str, expect: &str| -> Result<Vec<f64>> {
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != d + 1 || !fields[0].starts_with(expect) {
            return Err(BmfError::InvalidMoments {
                reason: format!("expected a '{expect}…' row with {d} values, got '{line}'"),
            });
        }
        fields[1..]
            .iter()
            .map(|f| {
                f.parse().map_err(|_| BmfError::InvalidMoments {
                    reason: format!("cannot parse '{f}' as a number"),
                })
            })
            .collect()
    };

    let mean_line = lines
        .next()
        .transpose()
        .map_err(|e| BmfError::InvalidMoments {
            reason: format!("read failure: {e}"),
        })?
        .ok_or_else(|| BmfError::InvalidMoments {
            reason: "missing mean row".to_string(),
        })?;
    let mean = Vector::from(parse_row(&mean_line, "mean")?);

    let mut cov = Matrix::zeros(d, d);
    for i in 0..d {
        let line = lines
            .next()
            .transpose()
            .map_err(|e| BmfError::InvalidMoments {
                reason: format!("read failure: {e}"),
            })?
            .ok_or_else(|| BmfError::InvalidMoments {
                reason: format!("missing covariance row {i}"),
            })?;
        let row = parse_row(&line, "cov")?;
        for (j, v) in row.into_iter().enumerate() {
            cov[(i, j)] = v;
        }
    }
    let est = MomentEstimate { mean, cov };
    est.validate()?;
    Ok((names, est))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip() {
        let data = LabelledSamples {
            names: vec!["a".into(), "b".into()],
            samples: Matrix::from_rows(&[&[1.5, -2.25e-7], &[3.0, 4.0]]).unwrap(),
        };
        let mut buf = Vec::new();
        write_samples_csv(&mut buf, &data).unwrap();
        let back = read_samples_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back.names, data.names);
        assert!(back.samples.max_abs_diff(&data.samples).unwrap() < 1e-15);
    }

    #[test]
    fn read_handles_whitespace_and_blank_lines() {
        let csv = "x , y\n 1.0, 2.0 \n\n3.0,4.0\n";
        let data = read_samples_csv(&mut csv.as_bytes()).unwrap();
        assert_eq!(data.names, vec!["x", "y"]);
        assert_eq!(data.samples.shape(), (2, 2));
        assert_eq!(data.samples[(1, 1)], 4.0);
    }

    #[test]
    fn read_rejects_malformed_input() {
        assert!(read_samples_csv(&mut "".as_bytes()).is_err());
        assert!(read_samples_csv(&mut "a,b\n".as_bytes()).is_err()); // no rows
        assert!(read_samples_csv(&mut "a,b\n1.0\n".as_bytes()).is_err()); // ragged
        assert!(read_samples_csv(&mut "a,b\n1.0,zzz\n".as_bytes()).is_err()); // non-numeric
        assert!(read_samples_csv(&mut ",\n1,2\n".as_bytes()).is_err()); // empty names
    }

    #[test]
    fn read_rejects_empty_header_fields_with_position() {
        // `a,,b` must NOT silently become 2 columns.
        let err = read_samples_csv(&mut "a,,b\n1,2,3\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("field 2"), "missing position: {msg}");
        assert!(msg.contains("empty"), "unclear error: {msg}");
        // Trailing comma is an empty final field, same rule.
        assert!(read_samples_csv(&mut "a,b,\n1,2,3\n".as_bytes()).is_err());
        // Leading empty field too.
        assert!(read_samples_csv(&mut ",a\n1,2\n".as_bytes()).is_err());
    }

    #[test]
    fn read_rejects_nonfinite_tokens_with_location() {
        for token in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let csv = format!("a,b\n1.0,2.0\n3.0,{token}\n");
            let err = read_samples_csv(&mut csv.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("non-finite"), "{token}: {msg}");
            assert!(msg.contains("line 3"), "{token} missing line: {msg}");
            assert!(msg.contains("'b'"), "{token} missing column name: {msg}");
            assert!(msg.contains("col 1"), "{token} missing column: {msg}");
        }
    }

    #[test]
    fn write_rejects_mismatched_names() {
        let data = LabelledSamples {
            names: vec!["only_one".into()],
            samples: Matrix::zeros(1, 2),
        };
        let mut buf = Vec::new();
        assert!(write_samples_csv(&mut buf, &data).is_err());
    }

    #[test]
    fn moments_round_trip() {
        let names = vec!["m0".to_string(), "m1".to_string()];
        let moments = MomentEstimate {
            mean: Vector::from_slice(&[1.0, -2.0]),
            cov: Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap(),
        };
        let mut buf = Vec::new();
        write_moments_csv(&mut buf, &names, &moments).unwrap();
        let (back_names, back) = read_moments_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back_names, names);
        assert!((&back.mean - &moments.mean).norm2() < 1e-15);
        assert!(back.cov.max_abs_diff(&moments.cov).unwrap() < 1e-15);
    }

    #[test]
    fn moments_read_rejects_malformed() {
        assert!(read_moments_csv(&mut "".as_bytes()).is_err());
        assert!(read_moments_csv(&mut "wrong,a\nmean,1\ncov0,1\n".as_bytes()).is_err());
        assert!(read_moments_csv(&mut "kind,a\nmean,1\n".as_bytes()).is_err()); // no cov
        assert!(read_moments_csv(&mut "kind,a\ncov0,1\nmean,1\n".as_bytes()).is_err()); // order
                                                                                        // asymmetric covariance fails MomentEstimate::validate
        let bad = "kind,a,b\nmean,0,0\ncov0,1.0,0.9\ncov1,0.1,1.0\n";
        assert!(read_moments_csv(&mut bad.as_bytes()).is_err());
        // Empty or repeated metric names, in otherwise valid files.
        let body = "mean,0,0,0\ncov0,1,0,0\ncov1,0,1,0\ncov2,0,0,1\n";
        for (header, position) in [
            ("kind,a,,b", "field 3 "),
            ("kind,a,b,", "field 4 "),
            ("kind,a,b,a", "fields 2 and 4 "),
        ] {
            let csv = format!("{header}\n{body}");
            let msg = read_moments_csv(&mut csv.as_bytes())
                .unwrap_err()
                .to_string();
            assert!(msg.contains(position), "{header}: {msg}");
        }
    }

    #[test]
    fn precise_values_survive_round_trip() {
        let data = LabelledSamples {
            names: vec!["v".into()],
            samples: Matrix::from_rows(&[&[std::f64::consts::PI], &[1.0 / 3.0]]).unwrap(),
        };
        let mut buf = Vec::new();
        write_samples_csv(&mut buf, &data).unwrap();
        let back = read_samples_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back.samples[(0, 0)], std::f64::consts::PI);
        assert_eq!(back.samples[(1, 0)], 1.0 / 3.0);
    }
}
