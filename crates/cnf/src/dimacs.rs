//! DIMACS CNF and WCNF text I/O.
//!
//! Supports the classic formats used by the SAT competitions and MaxSAT
//! evaluations referenced in the paper:
//!
//! - **CNF**: `p cnf <vars> <clauses>` followed by zero-terminated clauses.
//! - **WCNF**: `p wcnf <vars> <clauses> [top]` where each clause starts
//!   with a weight; weight = `top` marks a hard clause. Without `top`
//!   every clause is soft (plain weighted MaxSAT).
//! - **New-format WCNF** (MaxSAT Evaluation 2022+): no `p` header line;
//!   hard clauses start with the token `h`, soft clauses with their
//!   (positive integer) weight. [`parse_wcnf`] auto-detects the two
//!   WCNF dialects from the presence of the `p` line.
//!
//! Comments (`c …`) are ignored. Clauses may span lines; a clause ends at
//! the literal `0`.
//!
//! # Examples
//!
//! ```
//! use coremax_cnf::dimacs;
//! let cnf = dimacs::parse_cnf("p cnf 2 2\n1 -2 0\n2 0\n")?;
//! assert_eq!(cnf.num_vars(), 2);
//! assert_eq!(cnf.num_clauses(), 2);
//! let text = dimacs::write_cnf(&cnf);
//! let again = dimacs::parse_cnf(&text)?;
//! assert_eq!(cnf, again);
//! # Ok::<(), coremax_cnf::ParseDimacsError>(())
//! ```

use std::fmt::Write as _;

use crate::error::{ParseDimacsError, ParseDimacsErrorKind};
use crate::{CnfFormula, Lit, WcnfFormula, Weight};

/// Parses DIMACS CNF text into a [`CnfFormula`].
///
/// The declared variable count is honoured even if larger than the
/// maximum variable used; literals beyond the declared count are errors.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed headers, tokens, weights or
/// unterminated clauses.
pub fn parse_cnf(text: &str) -> Result<CnfFormula, ParseDimacsError> {
    let mut parser = Parser::new(text);
    let header = parser.read_header()?;
    if header.format != Format::Cnf {
        return Err(ParseDimacsError::new(
            parser.header_line,
            ParseDimacsErrorKind::BadHeader,
        ));
    }
    let mut formula = CnfFormula::with_vars(header.num_vars);
    while let Some(clause) = parser.read_clause(header.num_vars, None)? {
        if formula.num_clauses() == header.num_clauses {
            return Err(ParseDimacsError::new(
                parser.line,
                ParseDimacsErrorKind::TooManyClauses,
            ));
        }
        formula.add_clause(clause.lits);
    }
    Ok(formula)
}

/// Parses DIMACS WCNF text into a [`WcnfFormula`].
///
/// Accepts both WCNF dialects, auto-detected by the presence of a `p`
/// header line:
///
/// - **classic**: `p wcnf <vars> <clauses> [top]`; if the header carries
///   a `top` weight, clauses with exactly that weight are hard; all
///   others are soft. Without `top`, all clauses are soft.
/// - **new format** (MaxSAT Evaluation 2022+): no header; each clause
///   starts with `h` (hard) or its weight (soft), and variables grow on
///   demand.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed input.
///
/// # Examples
///
/// ```
/// use coremax_cnf::dimacs;
/// let classic = dimacs::parse_wcnf("p wcnf 2 2 9\n9 1 0\n4 -2 0\n")?;
/// let modern = dimacs::parse_wcnf("c new format\nh 1 0\n4 -2 0\n")?;
/// assert_eq!(classic.num_hard(), modern.num_hard());
/// assert_eq!(classic.num_soft(), modern.num_soft());
/// # Ok::<(), coremax_cnf::ParseDimacsError>(())
/// ```
pub fn parse_wcnf(text: &str) -> Result<WcnfFormula, ParseDimacsError> {
    if first_meaningful_token(text) != Some("p") {
        return parse_wcnf_new(text);
    }
    let mut parser = Parser::new(text);
    let header = parser.read_header()?;
    if header.format != Format::Wcnf {
        return Err(ParseDimacsError::new(
            parser.header_line,
            ParseDimacsErrorKind::BadHeader,
        ));
    }
    let mut formula = WcnfFormula::with_vars(header.num_vars);
    let mut seen = 0usize;
    while let Some(clause) = parser.read_clause(header.num_vars, Some(header.top))? {
        if seen == header.num_clauses {
            return Err(ParseDimacsError::new(
                parser.line,
                ParseDimacsErrorKind::TooManyClauses,
            ));
        }
        seen += 1;
        match clause.weight {
            Some(w) if Some(w) == header.top => formula.add_hard(clause.lits),
            Some(w) if w == crate::HARD_WEIGHT => {
                // The hard-weight sentinel cannot be stored as a soft
                // weight; a classic file using it without declaring it
                // as `top` is malformed.
                return Err(ParseDimacsError::new(
                    parser.line,
                    ParseDimacsErrorKind::BadWeight(w.to_string()),
                ));
            }
            Some(w) => formula.add_soft(clause.lits, w),
            None => unreachable!("wcnf clauses always carry a weight"),
        }
    }
    Ok(formula)
}

/// The most variables a formula can have: one per representable index.
const MAX_VARS: usize = crate::Var::MAX_INDEX as usize + 1;

/// First token of the first non-comment, non-blank line (used to sniff
/// the WCNF dialect: the classic format always opens with `p`).
fn first_meaningful_token(text: &str) -> Option<&str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('c') && !l.starts_with('%'))
        .find_map(|l| l.split_ascii_whitespace().next())
}

/// Parses new-format (headerless) WCNF: `h <lits> 0` for hard clauses,
/// `<weight> <lits> 0` for soft clauses.
fn parse_wcnf_new(text: &str) -> Result<WcnfFormula, ParseDimacsError> {
    let mut parser = Parser::new(text);
    let mut formula = WcnfFormula::new();
    // No declared variable count: literals are bounded only by the
    // representable range (`MAX_VARS`), and the formula grows on demand.
    loop {
        let first = match parser.next_token() {
            Some(t) => t,
            None => return Ok(formula),
        };
        let weight: Option<Weight> = if first == "h" {
            None
        } else {
            let w: Weight = first.parse().map_err(|_| {
                ParseDimacsError::new(
                    parser.line,
                    ParseDimacsErrorKind::BadWeight(first.to_string()),
                )
            })?;
            if w == 0 || w == crate::HARD_WEIGHT {
                return Err(ParseDimacsError::new(
                    parser.line,
                    ParseDimacsErrorKind::BadWeight(first.to_string()),
                ));
            }
            Some(w)
        };
        let mut lits = Vec::new();
        loop {
            let tok = match parser.next_token() {
                Some(t) => t,
                None => {
                    return Err(ParseDimacsError::new(
                        parser.line,
                        ParseDimacsErrorKind::UnterminatedClause,
                    ))
                }
            };
            if !parser.push_lit(tok, MAX_VARS, &mut lits)? {
                break;
            }
        }
        match weight {
            None => formula.add_hard(lits),
            Some(w) => formula.add_soft(lits, w),
        }
    }
}

/// Serialises a [`CnfFormula`] to DIMACS CNF text.
#[must_use]
pub fn write_cnf(formula: &CnfFormula) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "p cnf {} {}",
        formula.num_vars(),
        formula.num_clauses()
    );
    for clause in formula.iter() {
        for &lit in clause.lits() {
            let _ = write!(out, "{} ", lit.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    out
}

/// Serialises a [`WcnfFormula`] to DIMACS WCNF text, using
/// `total_soft_weight + 1` as the `top` (hard) weight.
#[must_use]
pub fn write_wcnf(formula: &WcnfFormula) -> String {
    let top = formula.total_soft_weight().saturating_add(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "p wcnf {} {} {}",
        formula.num_vars(),
        formula.num_clauses(),
        top
    );
    for clause in formula.hard_clauses() {
        let _ = write!(out, "{top} ");
        for &lit in clause.lits() {
            let _ = write!(out, "{} ", lit.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    for soft in formula.soft_clauses() {
        let _ = write!(out, "{} ", soft.weight);
        for &lit in soft.clause.lits() {
            let _ = write!(out, "{} ", lit.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    out
}

/// Serialises a [`WcnfFormula`] to the post-2022 MaxSAT-Evaluation WCNF
/// dialect: no `p` header, hard clauses prefixed `h`, soft clauses
/// prefixed with their weight. [`parse_wcnf`] reads this format back.
///
/// # Examples
///
/// ```
/// use coremax_cnf::{dimacs, Lit, WcnfFormula};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_hard([Lit::positive(x)]);
/// w.add_soft([Lit::negative(x)], 4);
/// let text = dimacs::write_wcnf_new(&w);
/// assert_eq!(text, "h 1 0\n4 -1 0\n");
/// assert_eq!(dimacs::parse_wcnf(&text).unwrap(), w);
/// ```
#[must_use]
pub fn write_wcnf_new(formula: &WcnfFormula) -> String {
    let mut out = String::new();
    for clause in formula.hard_clauses() {
        out.push('h');
        for &lit in clause.lits() {
            let _ = write!(out, " {}", lit.to_dimacs());
        }
        out.push_str(" 0\n");
    }
    for soft in formula.soft_clauses() {
        let _ = write!(out, "{}", soft.weight);
        for &lit in soft.clause.lits() {
            let _ = write!(out, " {}", lit.to_dimacs());
        }
        out.push_str(" 0\n");
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Cnf,
    Wcnf,
}

struct Header {
    format: Format,
    num_vars: usize,
    num_clauses: usize,
    /// `Some(top)` iff the wcnf header declared a top weight.
    top: Option<Weight>,
}

struct ParsedClause {
    weight: Option<Weight>,
    lits: Vec<Lit>,
}

struct Parser<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
    /// Tokens remaining on the current line.
    tokens: Vec<&'a str>,
    /// Position in `tokens`.
    pos: usize,
    line: usize,
    header_line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().peekable(),
            tokens: Vec::new(),
            pos: 0,
            line: 0,
            header_line: 0,
        }
    }

    /// Advances to the next meaningful token, skipping comments/blanks.
    fn next_token(&mut self) -> Option<&'a str> {
        loop {
            if self.pos < self.tokens.len() {
                let tok = self.tokens[self.pos];
                self.pos += 1;
                return Some(tok);
            }
            let line = self.lines.next()?;
            self.line += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
                continue;
            }
            self.tokens = trimmed.split_ascii_whitespace().collect();
            self.pos = 0;
        }
    }

    fn read_header(&mut self) -> Result<Header, ParseDimacsError> {
        let tok = self
            .next_token()
            .ok_or_else(|| ParseDimacsError::new(self.line, ParseDimacsErrorKind::BadHeader))?;
        self.header_line = self.line;
        if tok != "p" {
            return Err(ParseDimacsError::new(
                self.line,
                ParseDimacsErrorKind::BadHeader,
            ));
        }
        let bad = |p: &Parser<'_>| ParseDimacsError::new(p.line, ParseDimacsErrorKind::BadHeader);
        let fmt_tok = self.next_token().ok_or_else(|| bad(self))?;
        let format = match fmt_tok {
            "cnf" => Format::Cnf,
            "wcnf" => Format::Wcnf,
            _ => return Err(bad(self)),
        };
        // A header may not declare more variables than a literal can
        // name: per-variable arrays are sized from this count.
        let nv: usize = self
            .next_token()
            .ok_or_else(|| bad(self))?
            .parse()
            .map_err(|_| bad(self))?;
        if nv > MAX_VARS {
            return Err(bad(self));
        }
        let nc: usize = self
            .next_token()
            .ok_or_else(|| bad(self))?
            .parse()
            .map_err(|_| bad(self))?;
        // Optional wcnf top weight; it sits on the same (header) line.
        let mut top = None;
        if format == Format::Wcnf && self.pos < self.tokens.len() {
            let t = self.tokens[self.pos];
            self.pos += 1;
            top = Some(t.parse().map_err(|_| {
                ParseDimacsError::new(self.line, ParseDimacsErrorKind::BadWeight(t.to_string()))
            })?);
        }
        Ok(Header {
            format,
            num_vars: nv,
            num_clauses: nc,
            top,
        })
    }

    /// Reads the next clause. `wcnf_top = Some(top)` switches weighted
    /// mode on (each clause starts with a weight). Returns `None` at EOF.
    fn read_clause(
        &mut self,
        num_vars: usize,
        wcnf_top: Option<Option<Weight>>,
    ) -> Result<Option<ParsedClause>, ParseDimacsError> {
        let first = match self.next_token() {
            Some(t) => t,
            None => return Ok(None),
        };
        let mut lits = Vec::new();
        let weight = if wcnf_top.is_some() {
            let w: Weight = first.parse().map_err(|_| {
                ParseDimacsError::new(
                    self.line,
                    ParseDimacsErrorKind::BadWeight(first.to_string()),
                )
            })?;
            if w == 0 {
                return Err(ParseDimacsError::new(
                    self.line,
                    ParseDimacsErrorKind::BadWeight(first.to_string()),
                ));
            }
            Some(w)
        } else {
            if !self.push_lit(first, num_vars, &mut lits)? {
                // The first token was already the terminator: empty clause.
                return Ok(Some(ParsedClause { weight: None, lits }));
            }
            None
        };
        loop {
            let tok = match self.next_token() {
                Some(t) => t,
                None => {
                    return Err(ParseDimacsError::new(
                        self.line,
                        ParseDimacsErrorKind::UnterminatedClause,
                    ))
                }
            };
            if !self.push_lit(tok, num_vars, &mut lits)? {
                return Ok(Some(ParsedClause { weight, lits }));
            }
        }
    }

    /// Parses one literal token into `lits`. Returns `Ok(false)` when the
    /// token is the clause terminator `0`.
    fn push_lit(
        &self,
        tok: &str,
        num_vars: usize,
        lits: &mut Vec<Lit>,
    ) -> Result<bool, ParseDimacsError> {
        let value: i32 = tok.parse().map_err(|_| {
            ParseDimacsError::new(self.line, ParseDimacsErrorKind::BadLiteral(tok.to_string()))
        })?;
        if value == 0 {
            return Ok(false);
        }
        if value.unsigned_abs() as usize > num_vars {
            return Err(ParseDimacsError::new(
                self.line,
                ParseDimacsErrorKind::VariableOutOfRange(value),
            ));
        }
        let lit = Lit::from_dimacs(value).ok_or_else(|| {
            ParseDimacsError::new(self.line, ParseDimacsErrorKind::BadLiteral(tok.to_string()))
        })?;
        lits.push(lit);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_cnf() {
        let f = parse_cnf("c comment\np cnf 3 2\n1 -2 0\n3 0\n").unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clause(0).lits()[1].to_dimacs(), -2);
    }

    #[test]
    fn parse_multiline_clause() {
        let f = parse_cnf("p cnf 4 1\n1 2\n3 -4\n0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.clause(0).len(), 4);
    }

    #[test]
    fn parse_empty_clause() {
        let f = parse_cnf("p cnf 1 1\n0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
        assert!(f.clause(0).is_empty());
    }

    #[test]
    fn reject_missing_header() {
        let e = parse_cnf("1 2 0\n").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::BadHeader);
    }

    #[test]
    fn reject_bad_literal() {
        let e = parse_cnf("p cnf 2 1\n1 xy 0\n").unwrap_err();
        assert!(matches!(e.kind, ParseDimacsErrorKind::BadLiteral(_)));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn reject_unterminated_clause() {
        let e = parse_cnf("p cnf 2 1\n1 2\n").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::UnterminatedClause);
    }

    #[test]
    fn reject_variable_out_of_range() {
        let e = parse_cnf("p cnf 2 1\n1 5 0\n").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::VariableOutOfRange(5));
    }

    #[test]
    fn reject_too_many_clauses() {
        let e = parse_cnf("p cnf 1 1\n1 0\n-1 0\n").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::TooManyClauses);
    }

    #[test]
    fn header_variable_count_is_bounded_by_the_literal_range() {
        // 2^31 - 1 variables is the most a literal can name; one more is
        // a bad header. Formulas size nothing per variable up front.
        let cnf = |n: u64| {
            parse_cnf(&format!("p cnf {n} 1\n1 0\n"))
                .map(|f| f.num_vars())
                .map_err(|e| e.kind)
        };
        let wcnf = |n: u64| {
            parse_wcnf(&format!("p wcnf {n} 1 2\n1 1 0\n"))
                .map(|f| f.num_vars())
                .map_err(|e| e.kind)
        };
        assert_eq!(MAX_VARS, 2_147_483_647);
        let max = MAX_VARS as u64;
        assert_eq!(cnf(max), Ok(MAX_VARS));
        assert_eq!(wcnf(max), Ok(MAX_VARS));
        for n in [max + 1, 3_000_000_000] {
            assert_eq!(cnf(n), Err(ParseDimacsErrorKind::BadHeader));
            assert_eq!(wcnf(n), Err(ParseDimacsErrorKind::BadHeader));
        }
    }

    #[test]
    fn reject_wcnf_header_for_cnf_parse() {
        assert!(parse_cnf("p wcnf 1 1 2\n2 1 0\n").is_err());
    }

    #[test]
    fn cnf_roundtrip() {
        let text = "p cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n";
        let f = parse_cnf(text).unwrap();
        assert_eq!(write_cnf(&f), text);
        let g = parse_cnf(&write_cnf(&f)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn parse_wcnf_with_top() {
        let w = parse_wcnf("p wcnf 2 3 10\n10 1 0\n3 -1 0\n1 2 0\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.num_soft(), 2);
        assert_eq!(w.soft_clauses()[0].weight, 3);
    }

    #[test]
    fn parse_wcnf_without_top_all_soft() {
        let w = parse_wcnf("p wcnf 2 2\n3 1 0\n1 -1 0\n").unwrap();
        assert_eq!(w.num_hard(), 0);
        assert_eq!(w.num_soft(), 2);
    }

    #[test]
    fn reject_zero_weight() {
        let e = parse_wcnf("p wcnf 1 1 5\n0 1 0\n").unwrap_err();
        assert!(matches!(e.kind, ParseDimacsErrorKind::BadWeight(_)));
    }

    #[test]
    fn wcnf_roundtrip() {
        let mut w = WcnfFormula::new();
        let text_in = "p wcnf 3 3 7\n7 1 2 0\n5 -1 0\n1 3 0\n";
        w.add_hard([Lit::from_dimacs(1).unwrap(), Lit::from_dimacs(2).unwrap()]);
        w.add_soft([Lit::from_dimacs(-1).unwrap()], 5);
        w.add_soft([Lit::from_dimacs(3).unwrap()], 1);
        let text = write_wcnf(&w);
        assert_eq!(text, text_in);
        let again = parse_wcnf(&text).unwrap();
        assert_eq!(w, again);
    }

    #[test]
    fn comments_and_percent_lines_skipped() {
        let f = parse_cnf("c a\n%\np cnf 1 1\nc inner\n1 0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
    }

    #[test]
    fn blank_lines_between_clauses_skipped() {
        let f = parse_cnf("p cnf 2 2\n\n1 0\n   \n\t\n-2 0\n\n").unwrap();
        assert_eq!(f.num_clauses(), 2);
    }

    #[test]
    fn empty_clause_line_in_wcnf() {
        // A weight followed directly by the terminator: empty soft clause.
        let w = parse_wcnf("p wcnf 1 2 9\n5 0\n9 1 0\n").unwrap();
        assert_eq!(w.num_soft(), 1);
        assert_eq!(w.num_hard(), 1);
        assert!(w.soft_clauses()[0].clause.is_empty());
        assert_eq!(w.soft_clauses()[0].weight, 5);
    }

    #[test]
    fn several_empty_cnf_clauses() {
        let f = parse_cnf("p cnf 1 3\n0\n0\n0\n").unwrap();
        assert_eq!(f.num_clauses(), 3);
        assert!(f.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn reject_missing_terminator_at_eof() {
        let e = parse_cnf("p cnf 3 1\n1 2 3").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::UnterminatedClause);
        assert_eq!(e.line, 2);
    }

    #[test]
    fn reject_wcnf_missing_terminator_at_eof() {
        let e = parse_wcnf("p wcnf 2 1 5\n5 1 2").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::UnterminatedClause);
    }

    #[test]
    fn reject_wcnf_weight_with_no_clause_at_eof() {
        // A dangling weight token is an unterminated clause, not a panic.
        let e = parse_wcnf("p wcnf 1 1 5\n3").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::UnterminatedClause);
    }

    #[test]
    fn top_weight_exactly_marks_hard() {
        let w = parse_wcnf("p wcnf 1 3 1000\n1000 1 0\n999 -1 0\n1 1 0\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.num_soft(), 2);
        assert_eq!(w.soft_clauses()[0].weight, 999);
    }

    #[test]
    fn weight_above_top_stays_soft() {
        // Only weights exactly equal to top are hard (module contract);
        // larger weights remain soft rather than being silently promoted.
        let w = parse_wcnf("p wcnf 1 2 10\n11 1 0\n10 -1 0\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.num_soft(), 1);
        assert_eq!(w.soft_clauses()[0].weight, 11);
    }

    #[test]
    fn crlf_input_parses() {
        let f = parse_cnf("p cnf 3 2\r\n1 -2 0\r\n3 0\r\n").unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        let w = parse_wcnf("c crlf\r\np wcnf 2 2 9\r\n9 1 0\r\n4 -2 0\r\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.soft_clauses()[0].weight, 4);
    }

    #[test]
    fn crlf_multiline_clause() {
        let f = parse_cnf("p cnf 4 1\r\n1 2\r\n3 -4\r\n0\r\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.clause(0).len(), 4);
    }

    #[test]
    fn new_format_basic() {
        let w = parse_wcnf("c new format\nh 1 2 0\nh -1 0\n3 2 0\n1 -2 0\n").unwrap();
        assert_eq!(w.num_hard(), 2);
        assert_eq!(w.num_soft(), 2);
        assert_eq!(w.num_vars(), 2);
        assert_eq!(w.soft_clauses()[0].weight, 3);
        assert_eq!(w.soft_clauses()[1].weight, 1);
        assert_eq!(w.hard_clauses()[0].lits()[1].to_dimacs(), 2);
    }

    #[test]
    fn new_format_vars_grow_on_demand() {
        let w = parse_wcnf("h 7 0\n2 -9 0\n").unwrap();
        assert_eq!(w.num_vars(), 9);
    }

    #[test]
    fn new_format_multiline_and_crlf() {
        let w = parse_wcnf("h 1 2\r\n3 0\r\n5 -1\r\n-2 0\r\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.hard_clauses()[0].len(), 3);
        assert_eq!(w.num_soft(), 1);
        assert_eq!(w.soft_clauses()[0].clause.len(), 2);
    }

    #[test]
    fn new_format_empty_clauses() {
        let w = parse_wcnf("h 0\n4 0\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert!(w.hard_clauses()[0].is_empty());
        assert_eq!(w.num_soft(), 1);
        assert!(w.soft_clauses()[0].clause.is_empty());
        assert_eq!(w.soft_clauses()[0].weight, 4);
    }

    #[test]
    fn new_format_rejects_bad_weight_token() {
        let e = parse_wcnf("x 1 0\n").unwrap_err();
        assert!(matches!(e.kind, ParseDimacsErrorKind::BadWeight(_)));
        let e = parse_wcnf("0 1 0\n").unwrap_err();
        assert!(matches!(e.kind, ParseDimacsErrorKind::BadWeight(_)));
    }

    #[test]
    fn new_format_rejects_unterminated_clause() {
        let e = parse_wcnf("h 1 2").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::UnterminatedClause);
        let e = parse_wcnf("3 1\n").unwrap_err();
        assert_eq!(e.kind, ParseDimacsErrorKind::UnterminatedClause);
    }

    #[test]
    fn new_format_agrees_with_classic() {
        let classic = parse_wcnf("p wcnf 3 3 10\n10 1 2 0\n5 -1 0\n1 3 0\n").unwrap();
        let modern = parse_wcnf("h 1 2 0\n5 -1 0\n1 3 0\n").unwrap();
        assert_eq!(classic.hard_clauses(), modern.hard_clauses());
        assert_eq!(classic.soft_clauses(), modern.soft_clauses());
    }

    #[test]
    fn classic_roundtrip_of_new_format_input() {
        // New-format input serialises through the classic writer and
        // parses back to the same formula.
        let w = parse_wcnf("h 1 -2 0\n7 2 0\n").unwrap();
        let again = parse_wcnf(&write_wcnf(&w)).unwrap();
        assert_eq!(w, again);
    }

    #[test]
    fn hard_weight_sentinel_rejected_as_soft() {
        let text = format!("p wcnf 1 1\n{} 1 0\n", u64::MAX);
        let e = parse_wcnf(&text).unwrap_err();
        assert!(matches!(e.kind, ParseDimacsErrorKind::BadWeight(_)));
        let text = format!("{} 1 0\n", u64::MAX);
        let e = parse_wcnf(&text).unwrap_err();
        assert!(matches!(e.kind, ParseDimacsErrorKind::BadWeight(_)));
    }

    #[test]
    fn new_format_roundtrip() {
        let mut w = WcnfFormula::new();
        w.add_hard([Lit::from_dimacs(1).unwrap(), Lit::from_dimacs(-2).unwrap()]);
        w.add_soft([Lit::from_dimacs(-1).unwrap()], 5);
        w.add_soft([Lit::from_dimacs(2).unwrap()], 1);
        let text = write_wcnf_new(&w);
        assert_eq!(text, "h 1 -2 0\n5 -1 0\n1 2 0\n");
        let again = parse_wcnf(&text).unwrap();
        assert_eq!(w, again);
    }

    #[test]
    fn both_writers_agree_on_the_parsed_formula() {
        // classic text → formula → each writer → parse → same formula.
        let w = parse_wcnf("p wcnf 3 4 9\n9 1 2 0\n9 -3 0\n4 -1 0\n2 3 0\n").unwrap();
        let via_classic = parse_wcnf(&write_wcnf(&w)).unwrap();
        let via_new = parse_wcnf(&write_wcnf_new(&w)).unwrap();
        assert_eq!(w, via_classic);
        assert_eq!(w, via_new);
    }

    #[test]
    fn new_format_writer_handles_empty_clauses() {
        let mut w = WcnfFormula::new();
        w.add_hard(std::iter::empty::<Lit>());
        w.add_soft(std::iter::empty::<Lit>(), 3);
        let text = write_wcnf_new(&w);
        assert_eq!(text, "h 0\n3 0\n");
        assert_eq!(parse_wcnf(&text).unwrap(), w);
    }

    #[test]
    fn near_sentinel_weight_roundtrips_in_both_dialects() {
        // HARD_WEIGHT - 1 is the largest legal soft weight; both
        // writers must carry it through a parse cycle unchanged.
        let mut w = WcnfFormula::new();
        w.add_soft([Lit::from_dimacs(1).unwrap()], crate::HARD_WEIGHT - 1);
        let via_new = parse_wcnf(&write_wcnf_new(&w)).unwrap();
        assert_eq!(via_new.soft_clauses()[0].weight, crate::HARD_WEIGHT - 1);
        // The classic writer saturates its top at u64::MAX, which still
        // exceeds no soft weight ambiguity: weight != top stays soft.
        let via_classic = parse_wcnf(&write_wcnf(&w)).unwrap();
        assert_eq!(via_classic.soft_clauses()[0].weight, crate::HARD_WEIGHT - 1);
        assert_eq!(via_classic.num_hard(), 0);
    }

    #[test]
    fn wcnf_top_written_above_every_soft_weight() {
        // write_wcnf must pick a top no soft weight can collide with,
        // so the roundtrip preserves the hard/soft split.
        let mut w = WcnfFormula::new();
        w.add_hard([Lit::from_dimacs(1).unwrap()]);
        w.add_soft([Lit::from_dimacs(-1).unwrap()], 7);
        w.add_soft([Lit::from_dimacs(2).unwrap()], 3);
        let text = write_wcnf(&w);
        let again = parse_wcnf(&text).unwrap();
        assert_eq!(again.num_hard(), 1);
        assert_eq!(again.num_soft(), 2);
        assert_eq!(again.total_soft_weight(), 10);
    }
}
