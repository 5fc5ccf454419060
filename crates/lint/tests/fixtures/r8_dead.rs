//! R8 fixture: public functions reached from each kind of root, and the
//! shapes R8 must flag.
pub fn only_its_own_tests() -> u8 {
    only_from_dead()
}

pub fn only_from_dead() -> u8 {
    1
}

mod inner {
    pub fn only_reexported() -> u8 {
        2
    }
}
pub use inner::only_reexported;

// lint:allow(dead)
pub fn allow_without_reason() -> u8 {
    3
}

// lint:allow(dead): Fig. 9 reference curve, the oracle of a contract test
pub fn allowed_with_reason() -> u8 {
    4
}

pub fn from_example() -> u8 {
    via_chain()
}

pub fn via_chain() -> u8 {
    5
}

pub fn from_bench() -> u8 {
    6
}

pub fn from_crate_test() -> u8 {
    7
}

pub fn from_benchmark() -> u8 {
    8
}

pub fn as_fn_pointer(x: u8) -> u8 {
    x
}

pub fn from_trait_impl() -> u8 {
    9
}

pub(crate) fn crate_visible() -> u8 {
    10
}

fn private() -> u8 {
    11
}

pub struct Registry;

impl Registry {
    pub fn len(&self) -> usize {
        0
    }
}

impl std::fmt::Display for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", from_trait_impl())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn own_test() {
        assert_eq!(super::only_its_own_tests(), 1);
    }
}
