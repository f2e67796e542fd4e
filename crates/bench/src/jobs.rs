//! The full figure/table job registry used by the `repro` binary.

use crate::catalog;
use iat_runner::Registry;

/// Builds the registry of every paper figure/table job by walking the
/// figure catalog ([`catalog::FIGURES`]). Registration order is the
/// output order — it never depends on worker scheduling.
pub fn registry() -> Registry {
    let mut reg = Registry::new();
    for fig in catalog::FIGURES {
        (fig.register)(&mut reg);
    }
    reg
}
