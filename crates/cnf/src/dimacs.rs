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
//!   (positive integer) weight.
//!
//! One byte-level scanner reads all three dialects. It walks the text
//! once, parses each integer in place and writes each literal straight
//! into the formula's [`ClauseStore`], sized from the header's clause
//! count where that names the store; no clause is an allocation of its
//! own. The first token decides the dialect: `p` opens a header
//! whose format token (`cnf` or `wcnf`) names it, and anything else
//! starts new-format WCNF. [`parse_maxsat`] takes all three dialects,
//! [`parse_wcnf`] the two WCNF ones and [`parse_cnf`] only CNF.
//!
//! # Accepted syntax
//!
//! - **Lines** end at `\n`. A `\r` is whitespace, so CRLF text reads
//!   like LF text. An error names its line, counted from 1; at the end
//!   of the input that is the last line.
//! - **Comments and blank lines**: a line is skipped when its text,
//!   trimmed at both ends, is empty or starts with `c` or `%`. Trimming
//!   strips any Unicode whitespace, such as a vertical tab or U+00A0.
//! - **Tokens** are separated by spaces, tabs, carriage returns and form
//!   feeds, so a header may read `p\tcnf 2 2`. Other whitespace inside a
//!   line belongs to a token, which is then malformed. A clause may span
//!   lines and ends at the literal `0`.
//! - **Integers** are decimal, and leading zeros are allowed. A literal
//!   may carry a `+` or `-` sign, and `-0` ends a clause like `0`. Counts
//!   and weights may carry a `+`. A literal outside the `i32` range is a
//!   [`BadLiteral`](ParseDimacsErrorKind::BadLiteral) and a weight
//!   outside `u64` a [`BadWeight`](ParseDimacsErrorKind::BadWeight), each
//!   carrying the token's text. This is the syntax `str::parse` gives.
//! - **Variables**: a literal above the header's variable count is
//!   [`VariableOutOfRange`](ParseDimacsErrorKind::VariableOutOfRange). A
//!   header may declare at most 2^31 − 1 variables. Nothing is sized
//!   from a header's variable count, and the clause count is trusted
//!   only up to what the text can hold.
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
use crate::formula::grown_range;
use crate::{ClauseStore, CnfFormula, Lit, Var, WcnfFormula, Weight, HARD_WEIGHT};

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
    let mut reader = Reader::new(text);
    let header = match reader.start()? {
        Start::Header(header) if header.format == Format::Cnf => header,
        Start::Header(header) => return Err(header.wrong_format()),
        Start::Headerless(_) => return Err(reader.error(ParseDimacsErrorKind::BadHeader)),
    };
    let mut formula = CnfFormula::with_vars(header.num_vars);
    reader.cnf_body(&header, &mut formula.clauses)?;
    Ok(formula)
}

/// Parses DIMACS WCNF text into a [`WcnfFormula`].
///
/// Accepts both WCNF dialects, told apart by whether the first token is
/// a `p`:
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
    let mut reader = Reader::new(text);
    match reader.start()? {
        Start::Header(header) if header.format == Format::Wcnf => reader.wcnf_body(&header),
        Start::Header(header) => Err(header.wrong_format()),
        Start::Headerless(first) => reader.headerless_body(first),
    }
}

/// Parses CNF or WCNF text of any dialect into a MaxSAT instance.
///
/// The first token decides the dialect, in one place for all three: a
/// `p cnf` header gives plain MaxSAT (every clause soft at weight 1, no
/// hard clauses), a `p wcnf` header classic WCNF as [`parse_wcnf`] reads
/// it, and text without a `p` header new-format WCNF. A `p cnf` text
/// gives the formula [`parse_cnf`] would, read straight into soft
/// clauses.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed input: the error
/// [`parse_cnf`] gives for a `p cnf` text, and the one [`parse_wcnf`]
/// gives otherwise.
///
/// # Examples
///
/// ```
/// use coremax_cnf::dimacs;
/// let plain = dimacs::parse_maxsat("p\tcnf 1 2\n1 0\n-1 0\n")?;
/// assert_eq!((plain.num_hard(), plain.num_soft()), (0, 2));
/// let classic = dimacs::parse_maxsat("p wcnf 1 2 9\n9 1 0\n4 -1 0\n")?;
/// let modern = dimacs::parse_maxsat("h 1 0\n4 -1 0\n")?;
/// assert_eq!(classic, modern);
/// # Ok::<(), coremax_cnf::ParseDimacsError>(())
/// ```
pub fn parse_maxsat(text: &str) -> Result<WcnfFormula, ParseDimacsError> {
    let mut reader = Reader::new(text);
    match reader.start()? {
        Start::Header(header) if header.format == Format::Cnf => {
            let mut formula = WcnfFormula::with_vars(header.num_vars);
            reader.cnf_body(&header, &mut formula.soft)?;
            formula.weights = vec![1; formula.soft.len()];
            Ok(formula)
        }
        Start::Header(header) => reader.wcnf_body(&header),
        Start::Headerless(first) => reader.headerless_body(first),
    }
}

/// The most variables a formula can have: one per representable index.
const MAX_VARS: usize = Var::MAX_INDEX as usize + 1;

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
    for clause in formula.clauses() {
        for &lit in clause {
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
        for &lit in clause {
            let _ = write!(out, "{} ", lit.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    for soft in formula.soft_clauses() {
        let _ = write!(out, "{} ", soft.weight);
        for &lit in soft.clause {
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
        for &lit in clause {
            let _ = write!(out, " {}", lit.to_dimacs());
        }
        out.push_str(" 0\n");
    }
    for soft in formula.soft_clauses() {
        let _ = write!(out, "{}", soft.weight);
        for &lit in soft.clause {
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
    /// The line of the header's `p`.
    line: usize,
}

impl Header {
    /// The error for a header of the other format.
    fn wrong_format(&self) -> ParseDimacsError {
        ParseDimacsError::new(self.line, ParseDimacsErrorKind::BadHeader)
    }

    /// The declared clause count, trusted up to the most clauses `text`
    /// can hold (every clause takes at least two bytes), so that sizing
    /// a store from a hostile count costs nothing.
    fn clause_capacity(&self, text: &str) -> usize {
        self.num_clauses.min(text.len() / 2)
    }
}

/// How a text opens: with a `p` header, or as new-format WCNF whose
/// first token (if any) is already taken.
enum Start<'a> {
    Header(Header),
    Headerless(Option<&'a str>),
}

/// The scanner under every dialect. It hands out tokens as slices of the
/// text, skipping comment and blank lines, and counts lines as
/// `str::lines` does. Tokens parse with `str::parse`, except the common
/// literals that `quick_literal` reads. Literals go straight into the
/// clause store the body names.
///
/// Lines are read as `str::trim` and `str::split_ascii_whitespace` read
/// them, but byte by byte. The two differ only on whitespace that `trim`
/// strips and the split keeps inside tokens: the vertical tab and the
/// non-ASCII spaces. A line holding a byte that may be such whitespace
/// has its ends trimmed by `str::trim` itself (see `open_line` and
/// `cut_line`).
struct Reader<'a> {
    text: &'a str,
    /// The cursor: a byte offset into `text`.
    pos: usize,
    /// Tokens of the cursor's line end here. This is the end of the text,
    /// except on a line that `str::trim` shortens, where it is the end of
    /// the trimmed text.
    stop: usize,
    /// The cursor's line, counted from 1 (0 in an empty text).
    line: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        let mut reader = Reader {
            text,
            pos: 0,
            stop: text.len(),
            line: 0,
        };
        if !text.is_empty() {
            reader.line = 1;
            reader.open_line();
        }
        reader
    }

    fn error(&self, kind: ParseDimacsErrorKind) -> ParseDimacsError {
        ParseDimacsError::new(self.line, kind)
    }

    /// Reads the first token and, if it is `p`, the header it opens.
    fn start(&mut self) -> Result<Start<'a>, ParseDimacsError> {
        match self.next_token() {
            Some("p") => self.header().map(Start::Header),
            first => Ok(Start::Headerless(first)),
        }
    }

    /// Reads a header after its `p`.
    fn header(&mut self) -> Result<Header, ParseDimacsError> {
        let line = self.line;
        let format = match self.next_token() {
            Some("cnf") => Format::Cnf,
            Some("wcnf") => Format::Wcnf,
            _ => return Err(self.error(ParseDimacsErrorKind::BadHeader)),
        };
        // A header may not declare more variables than a literal can
        // name: per-variable arrays are sized from this count.
        let num_vars = self
            .count()
            .filter(|&n| n <= MAX_VARS)
            .ok_or_else(|| self.error(ParseDimacsErrorKind::BadHeader))?;
        let num_clauses = self
            .count()
            .ok_or_else(|| self.error(ParseDimacsErrorKind::BadHeader))?;
        // Optional wcnf top weight; it sits on the same line as the
        // clause count.
        let top = match format {
            Format::Wcnf => self.token_on_line().map(|t| self.weight(t)).transpose()?,
            Format::Cnf => None,
        };
        Ok(Header {
            format,
            num_vars,
            num_clauses,
            top,
            line,
        })
    }

    /// The next token as a header count, or `None` if it is missing or
    /// malformed.
    fn count(&mut self) -> Option<usize> {
        self.next_token()?.parse().ok()
    }

    /// Parses a weight token (any `u64`; callers reject 0 and
    /// `HARD_WEIGHT` where the dialect does).
    fn weight(&self, tok: &str) -> Result<Weight, ParseDimacsError> {
        tok.parse()
            .map_err(|_| self.error(ParseDimacsErrorKind::BadWeight(tok.to_string())))
    }

    /// Reads `p cnf` clauses up to the end of the text into `store`.
    fn cnf_body(
        &mut self,
        header: &Header,
        store: &mut ClauseStore,
    ) -> Result<(), ParseDimacsError> {
        store.reserve(header.clause_capacity(self.text), 0);
        let mut seen = 0usize;
        while let Some(first) = self.next_token() {
            self.read_lits(Some(first), header.num_vars, store)?;
            if seen == header.num_clauses {
                return Err(self.error(ParseDimacsErrorKind::TooManyClauses));
            }
            seen += 1;
        }
        Ok(())
    }

    /// Reads classic `p wcnf` clauses up to the end of the text.
    fn wcnf_body(&mut self, header: &Header) -> Result<WcnfFormula, ParseDimacsError> {
        let mut formula = WcnfFormula::with_vars(header.num_vars);
        // Without a `top` every clause is soft; with one, the split
        // between the two stores is unknown until the clauses are read.
        if header.top.is_none() {
            let capacity = header.clause_capacity(self.text);
            formula.soft.reserve(capacity, 0);
            formula.weights.reserve(capacity);
        }
        let mut seen = 0usize;
        while let Some(first) = self.next_token() {
            let weight = self.weight(first)?;
            if weight == 0 {
                return Err(self.error(ParseDimacsErrorKind::BadWeight(first.to_string())));
            }
            let hard = Some(weight) == header.top;
            let store = if hard {
                &mut formula.hard
            } else {
                &mut formula.soft
            };
            self.read_lits(None, header.num_vars, store)?;
            if seen == header.num_clauses {
                return Err(self.error(ParseDimacsErrorKind::TooManyClauses));
            }
            seen += 1;
            if hard {
                continue;
            }
            if weight == HARD_WEIGHT {
                // The hard-weight sentinel cannot be stored as a soft
                // weight; a classic file using it without declaring it
                // as `top` is malformed.
                return Err(self.error(ParseDimacsErrorKind::BadWeight(weight.to_string())));
            }
            formula.weights.push(weight);
        }
        Ok(formula)
    }

    /// Reads new-format clauses, `h <lits> 0` for hard ones and
    /// `<weight> <lits> 0` for soft ones, starting with the token
    /// `first`.
    fn headerless_body(&mut self, first: Option<&'a str>) -> Result<WcnfFormula, ParseDimacsError> {
        let mut formula = WcnfFormula::new();
        let mut next = first;
        while let Some(tok) = next {
            let weight = if tok == "h" {
                None
            } else {
                let w = self.weight(tok)?;
                if w == 0 || w == HARD_WEIGHT {
                    return Err(self.error(ParseDimacsErrorKind::BadWeight(tok.to_string())));
                }
                Some(w)
            };
            // No declared variable count: literals are bounded only by
            // the representable range, and the formula grows on demand.
            match weight {
                None => self.read_lits(None, MAX_VARS, &mut formula.hard)?,
                Some(w) => {
                    self.read_lits(None, MAX_VARS, &mut formula.soft)?;
                    formula.weights.push(w);
                }
            }
            next = self.next_token();
        }
        formula.num_vars = formula
            .hard
            .iter()
            .chain(&formula.soft)
            .fold(0, |n, c| grown_range(n, &c));
        Ok(formula)
    }

    /// Reads literals up to the clause's terminating `0` into `store` as
    /// its next clause. `first` is the clause's first literal token when
    /// the caller has already taken it.
    fn read_lits(
        &mut self,
        first: Option<&'a str>,
        num_vars: usize,
        store: &mut ClauseStore,
    ) -> Result<(), ParseDimacsError> {
        let mut next = first;
        loop {
            let value = match next.take() {
                Some(tok) => self.literal_value(tok)?,
                None => match self.quick_literal() {
                    Some(value) => value,
                    None => {
                        let tok = self
                            .next_token()
                            .ok_or_else(|| self.error(ParseDimacsErrorKind::UnterminatedClause))?;
                        self.literal_value(tok)?
                    }
                },
            };
            if value == 0 {
                store.close_clause();
                return Ok(());
            }
            let var = value.unsigned_abs();
            if var as usize > num_vars {
                return Err(self.error(ParseDimacsErrorKind::VariableOutOfRange(value)));
            }
            // `num_vars <= MAX_VARS`, so the index is representable.
            store.push_lit(Lit::new(Var::new(var - 1), value > 0));
        }
    }

    /// Parses a literal token.
    fn literal_value(&self, tok: &str) -> Result<i32, ParseDimacsError> {
        tok.parse()
            .map_err(|_| self.error(ParseDimacsErrorKind::BadLiteral(tok.to_string())))
    }

    /// Reads the next token if it is a literal of the common form, up to
    /// nine digits with an optional `-` and no other byte, on the
    /// cursor's line after spaces. Scans it once, parsing as it goes.
    /// Returns `None`, with the cursor unmoved, for any other token; the
    /// general path then reads it.
    fn quick_literal(&mut self) -> Option<i32> {
        let bytes = &self.text.as_bytes()[..self.stop];
        let mut pos = self.pos;
        while pos < bytes.len() && bytes[pos] == b' ' {
            pos += 1;
        }
        let negative = pos < bytes.len() && bytes[pos] == b'-';
        pos += usize::from(negative);
        let digits = pos;
        let mut value = 0;
        while pos < bytes.len() && pos - digits < 9 && bytes[pos].is_ascii_digit() {
            value = value * 10 + i32::from(bytes[pos] - b'0');
            pos += 1;
        }
        // The token must end here, or it is longer than this path reads.
        if pos == digits || (pos < bytes.len() && !bytes[pos].is_ascii_whitespace()) {
            return None;
        }
        self.pos = pos;
        Some(if negative { -value } else { value })
    }

    /// The next token, skipping comment and blank lines; `None` at the
    /// end of the text.
    fn next_token(&mut self) -> Option<&'a str> {
        loop {
            if let Some(tok) = self.token_on_line() {
                return Some(tok);
            }
            if !self.next_line() {
                return None;
            }
        }
    }

    /// The next token on the cursor's line, if there is one. Tokens
    /// start and end on character boundaries: next to ASCII bytes, at the
    /// text's ends, or where `str::trim` ends a line.
    fn token_on_line(&mut self) -> Option<&'a str> {
        let bytes = &self.text.as_bytes()[..self.stop];
        let mut pos = self.pos;
        while pos < bytes.len() && is_separator(bytes[pos]) {
            pos += 1;
        }
        let start = pos;
        while pos < bytes.len() && bytes[pos].is_ascii_graphic() {
            pos += 1;
        }
        self.pos = pos;
        if pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            return self.rare_token(start);
        }
        (pos > start).then(|| &self.text[start..pos])
    }

    /// `token_on_line` for a token holding a byte that is neither
    /// printable ASCII nor whitespace, from the cursor inside it.
    fn rare_token(&mut self, start: usize) -> Option<&'a str> {
        let bytes = &self.text.as_bytes()[..self.stop];
        let mut unsure = false;
        while self.pos < bytes.len() && !bytes[self.pos].is_ascii_whitespace() {
            unsure |= may_be_unicode_space(bytes[self.pos]);
            self.pos += 1;
        }
        if unsure {
            self.cut_line(start);
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// Ends the cursor's line where `str::trim` ends it, given that a
    /// token starts at `from` (a character boundary, as every token
    /// start is). Cutting a line twice leaves it as cut once.
    fn cut_line(&mut self, from: usize) {
        let line_end = self.find_newline(from);
        self.stop = from + self.text[from..line_end].trim_end().len();
        self.pos = self.pos.min(self.stop);
    }

    /// Moves the cursor to the start of the next line that holds tokens,
    /// counting the lines it passes. Returns `false` at the end of the
    /// text.
    fn next_line(&mut self) -> bool {
        let len = self.text.len();
        if self.stop < len {
            // Only whitespace that `str::trim` strips is left on the line.
            self.pos = self.find_newline(self.pos);
            self.stop = len;
        }
        // The cursor is on a `\n` or at the end of the text.
        if self.pos + 1 >= len {
            self.pos = len;
            return false;
        }
        self.pos += 1;
        self.line += 1;
        self.open_line();
        true
    }

    /// Starts the line at the cursor: moves past its leading whitespace,
    /// and on to its `\n` if it is a comment.
    fn open_line(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && is_separator(bytes[self.pos]) {
            self.pos += 1;
        }
        if bytes
            .get(self.pos)
            .copied()
            .is_some_and(may_be_unicode_space)
        {
            // `str::trim` may strip more than the separators.
            let rest = &self.text[self.pos..self.find_newline(self.pos)];
            self.pos += rest.len() - rest.trim_start().len();
            self.cut_line(self.pos);
        }
        if matches!(bytes.get(self.pos), Some(b'c' | b'%')) {
            self.pos = self.find_newline(self.pos);
        }
    }

    /// The offset of the first `\n` at or after `from`, or the text's
    /// length.
    fn find_newline(&self, from: usize) -> usize {
        self.text.as_bytes()[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.text.len(), |i| from + i)
    }
}

/// Token separators within a line: the ASCII whitespace that
/// `str::split_ascii_whitespace` splits on, less `\n`.
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\x0c')
}

/// Whether `b` may be part of whitespace that `str::trim` strips and
/// `str::split_ascii_whitespace` does not split on: the vertical tab, or
/// any byte of a non-ASCII character.
fn may_be_unicode_space(b: u8) -> bool {
    b == b'\x0b' || !b.is_ascii()
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
        assert_eq!(w.soft(0).weight, 3);
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
        assert!(w.soft(0).clause.is_empty());
        assert_eq!(w.soft(0).weight, 5);
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
        assert_eq!(w.soft(0).weight, 999);
    }

    #[test]
    fn weight_above_top_stays_soft() {
        // Only weights exactly equal to top are hard (module contract);
        // larger weights remain soft rather than being silently promoted.
        let w = parse_wcnf("p wcnf 1 2 10\n11 1 0\n10 -1 0\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.num_soft(), 1);
        assert_eq!(w.soft(0).weight, 11);
    }

    #[test]
    fn crlf_input_parses() {
        let f = parse_cnf("p cnf 3 2\r\n1 -2 0\r\n3 0\r\n").unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        let w = parse_wcnf("c crlf\r\np wcnf 2 2 9\r\n9 1 0\r\n4 -2 0\r\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.soft(0).weight, 4);
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
        assert_eq!(w.soft(0).weight, 3);
        assert_eq!(w.soft(1).weight, 1);
        assert_eq!(w.hard(0).lits()[1].to_dimacs(), 2);
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
        assert_eq!(w.hard(0).len(), 3);
        assert_eq!(w.num_soft(), 1);
        assert_eq!(w.soft(0).clause.len(), 2);
    }

    #[test]
    fn new_format_empty_clauses() {
        let w = parse_wcnf("h 0\n4 0\n").unwrap();
        assert_eq!(w.num_hard(), 1);
        assert!(w.hard(0).is_empty());
        assert_eq!(w.num_soft(), 1);
        assert!(w.soft(0).clause.is_empty());
        assert_eq!(w.soft(0).weight, 4);
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
        assert!(classic.hard_clauses().eq(modern.hard_clauses()));
        assert!(classic.soft_clauses().eq(modern.soft_clauses()));
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
        assert_eq!(via_new.soft(0).weight, crate::HARD_WEIGHT - 1);
        // The classic writer saturates its top at u64::MAX, which still
        // exceeds no soft weight ambiguity: weight != top stays soft.
        let via_classic = parse_wcnf(&write_wcnf(&w)).unwrap();
        assert_eq!(via_classic.soft(0).weight, crate::HARD_WEIGHT - 1);
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

    #[test]
    fn parse_maxsat_takes_the_dialect_from_the_first_token() {
        let plain = parse_maxsat("c x\np\tcnf 2 2\n1 -2 0\n2 0\n").unwrap();
        let cnf = parse_cnf("p cnf 2 2\n1 -2 0\n2 0\n").unwrap();
        assert_eq!(plain, WcnfFormula::from_cnf_all_soft(&cnf));
        // A header may continue on the next line, as any token may.
        let classic = parse_maxsat("p\nwcnf 1 2 9\n9 1 0\n4 -1 0\n").unwrap();
        assert_eq!((classic.num_hard(), classic.num_soft()), (1, 1));
        assert_eq!(classic, parse_maxsat("h 1 0\n4 -1 0\n").unwrap());
        // A `p` line after the first token is not a header.
        let e = parse_maxsat("1 2 0\np cnf 2 1\n").unwrap_err();
        assert_eq!(
            (e.line, e.kind),
            (2, ParseDimacsErrorKind::BadWeight("p".into()))
        );
        // Errors are those of the dialect's own parser.
        let e = parse_maxsat("p cnf 3 1\n1 2 3").unwrap_err();
        assert_eq!(e, parse_cnf("p cnf 3 1\n1 2 3").unwrap_err());
        let e = parse_maxsat("p wcnf 1 1 5\n0 1 0\n").unwrap_err();
        assert_eq!(e, parse_wcnf("p wcnf 1 1 5\n0 1 0\n").unwrap_err());
        assert_eq!(
            parse_maxsat("p dimacs 1 1\n").unwrap_err().kind,
            ParseDimacsErrorKind::BadHeader
        );
    }

    #[test]
    fn literal_tokens_read_like_str_parse() {
        // Nine digits take the one-pass path and ten the general one;
        // both must read signs and leading zeros as `str::parse` does.
        let lits = |body: &str| {
            parse_cnf(&format!("p cnf 2147483647 1\n1 {body} 0\n"))
                .map(|f| f.clause(0).lits()[1].to_dimacs())
                .map_err(|e| e.kind)
        };
        assert_eq!(lits("999999999"), Ok(999_999_999));
        assert_eq!(lits("-0000000007"), Ok(-7));
        assert_eq!(lits("+000000012"), Ok(12));
        assert_eq!(lits("2147483647"), Ok(2_147_483_647));
        assert_eq!(
            lits("-2147483648"),
            Err(ParseDimacsErrorKind::VariableOutOfRange(i32::MIN))
        );
        assert_eq!(
            lits("2147483648"),
            Err(ParseDimacsErrorKind::BadLiteral("2147483648".into()))
        );
        assert_eq!(
            lits("--1"),
            Err(ParseDimacsErrorKind::BadLiteral("--1".into()))
        );
        // `-0` ends a clause, on either path.
        let f = parse_cnf("p cnf 2 2\n-0\n1 -0\n").unwrap();
        assert!(f.clause(0).is_empty());
        assert_eq!(f.clause(1).len(), 1);
    }

    #[test]
    fn line_ends_trimmed_of_unicode_whitespace() {
        // `str::trim` strips a vertical tab or U+00A0 at either end of a
        // line, so neither starts a token there; inside a line they do.
        let f = parse_cnf("\u{a0}c note\np cnf 2 1\n\x0b1 2 0\u{a0}\x0b\n").unwrap();
        assert_eq!(f.clause(0).len(), 2);
        let e = parse_cnf("p cnf 2 1\n1 \u{a0}2 0\n").unwrap_err();
        assert_eq!(
            (e.line, e.kind),
            (2, ParseDimacsErrorKind::BadLiteral("\u{a0}2".into()))
        );
    }
}
