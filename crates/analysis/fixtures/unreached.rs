// Golden fixture: the unreached rule, analyzed as a `crates/bench` binary.
// Lines are pinned by tests/fixtures.rs — edit with care.

type Build = fn() -> u32;

// A table of fn pointers: reading the table reaches what it names.
const TABLE: &[(&str, Build)] = &[("a", from_table)];

trait Shape {
    fn area(&self) -> u32;
}

struct Square;

// A workspace trait: the call on `dyn Shape` reaches the impl.
impl Shape for Square {
    fn area(&self) -> u32 {
        behind_the_impl()
    }
}

// A std trait: `format!` calls it where no call is written.
impl std::fmt::Display for Square {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", behind_display())
    }
}

fn main() {
    direct();
    let built: u32 = TABLE.iter().map(|(_, build)| build()).sum();
    let mapped: u32 = [1u32].iter().copied().map(by_value).sum();
    let shapes: [&dyn Shape; 1] = [&Square];
    println!("{} {}", shapes[0].area() + built + mapped, Square);
}

fn direct() {}

fn from_table() -> u32 {
    2
}

fn by_value(x: u32) -> u32 {
    x
}

fn behind_the_impl() -> u32 {
    3
}

fn behind_display() -> u32 {
    4
}

// Violating: only the test below calls it.
fn test_only() -> u32 {
    5
}

// Allowed escape: an oracle, kept with what it calls.
// lint: allow(unreached) — fixture: the reference tests/fixtures.rs compares against
fn oracle() -> u32 {
    oracle_helper()
}

fn oracle_helper() -> u32 {
    6
}

#[cfg(test)]
mod tests {
    #[test]
    fn uses_both() {
        assert_eq!(super::test_only() + 1, super::oracle());
    }
}
