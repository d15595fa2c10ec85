//! Flag-parsing helpers shared by the `check` and `soak` binaries; both
//! exit with status 2 (usage error) on malformed input.

/// The value following `flag`.
pub fn value_of(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    })
}

/// `flag`'s value as a non-negative integer.
pub fn parse_num(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a non-negative integer, got {text:?}");
        std::process::exit(2);
    })
}
