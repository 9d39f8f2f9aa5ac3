//! Parameter-validation errors shared across the workspace.

use core::fmt;

/// Errors produced while validating model parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// A parameter that must be a power of two was not.
    NotPowerOfTwo {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: u64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NotPowerOfTwo { name, value } => {
                write!(f, "parameter `{name}` must be a power of two, got {value}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Result alias for parameter validation.
pub type Result<T> = core::result::Result<T, ParamError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_parameter() {
        let e = ParamError::NotPowerOfTwo {
            name: "h",
            value: 3,
        };
        assert!(e.to_string().contains('h'));
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(ParamError::NotPowerOfTwo {
            name: "hmax",
            value: 6,
        });
        assert!(e.to_string().contains("hmax"));
    }
}
