//! Table 5 — "Previous comparisons": which mechanism's original article
//! quantitatively compared against which previously published mechanisms.
//! Straight from the catalog; the paper's point is how *few* such
//! comparisons exist ("few articles have quantitative comparisons with
//! (one or two) previous mechanisms, except when comparisons are almost
//! compulsory").

use crate::Context;
use microlib::report::text_table;
use microlib_mech::MechanismKind;
use std::io::{self, Write};

/// Prints the prior-comparison catalog.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "tab05_prior_comparisons",
        "Table 5 (Previous comparisons)",
        "Quantitative comparisons performed by the original articles",
    )?;
    let mut rows = Vec::new();
    for kind in MechanismKind::study_set() {
        let against = kind.compared_against();
        if against.is_empty() {
            continue;
        }
        let list: Vec<String> = against.iter().map(|k| k.to_string()).collect();
        rows.push(vec![kind.to_string(), format!("vs. {}", list.join(", "))]);
    }
    writeln!(w, "{}", text_table(&["mechanism", "compared"], &rows))?;
    writeln!(
        w,
        "(TK and TCP compared against DBCP — \"while in this case, a comparison with SP"
    )?;
    writeln!(
        w,
        " might have been more appropriate\", as the paper notes.)"
    )
}
