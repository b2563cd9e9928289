use serde::{Deserialize, Serialize};
use std::fmt;

/// The three runtime-data categories the paper's characterization uses
/// (Figs. 4, 5, 17, 18): weight matrices, activation data, and the
/// forward-propagation intermediate variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataCategory {
    /// Weight matrices `W`, `U`, biases, and their gradients
    /// ("Parameter" in the paper's figures).
    Weights,
    /// Layer inputs/outputs `x_t`, `h_t` flowing between cells and layers.
    Activations,
    /// Forward intermediates `i_t, f_t, c_t, o_t, s_t` (or their MS1
    /// compressed replacements) stored for backpropagation.
    Intermediates,
}

impl DataCategory {
    /// All categories in display order.
    pub const ALL: [DataCategory; 3] = [
        DataCategory::Weights,
        DataCategory::Activations,
        DataCategory::Intermediates,
    ];
}

impl fmt::Display for DataCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataCategory::Weights => "weights",
            DataCategory::Activations => "activations",
            DataCategory::Intermediates => "intermediates",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(DataCategory::Weights.to_string(), "weights");
        assert_eq!(DataCategory::Intermediates.to_string(), "intermediates");
    }
}
