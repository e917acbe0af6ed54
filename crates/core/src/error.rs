//! Error types for PGLP operations.

use panda_geo::CellId;

/// Errors surfaced by policy construction, mechanisms and budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum PglpError {
    /// ε must be strictly positive and finite.
    InvalidEpsilon(f64),
    /// A referenced location does not belong to the policy's grid domain.
    LocationOutOfDomain(CellId),
    /// The privacy budget ledger cannot cover a requested charge.
    BudgetExhausted {
        /// Budget requested by the caller.
        requested: f64,
        /// Budget still available.
        remaining: f64,
    },
    /// A policy construction received an empty location set.
    EmptyLocationSet,
    /// Grid dimensions of two artefacts that must share a domain disagree.
    DomainMismatch,
}

impl std::fmt::Display for PglpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PglpError::InvalidEpsilon(eps) => {
                write!(f, "epsilon must be positive and finite, got {eps}")
            }
            PglpError::LocationOutOfDomain(c) => {
                write!(f, "location {c} is outside the policy's grid domain")
            }
            PglpError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested {requested}, remaining {remaining}"
            ),
            PglpError::EmptyLocationSet => write!(f, "location set must be non-empty"),
            PglpError::DomainMismatch => write!(f, "grid domains do not match"),
        }
    }
}

impl std::error::Error for PglpError {}

/// Validates an ε value.
pub fn check_epsilon(eps: f64) -> Result<(), PglpError> {
    if eps > 0.0 && eps.is_finite() {
        Ok(())
    } else {
        Err(PglpError::InvalidEpsilon(eps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(check_epsilon(1.0).is_ok());
        assert!(check_epsilon(1e-9).is_ok());
        assert_eq!(
            check_epsilon(0.0),
            Err(PglpError::InvalidEpsilon(0.0)).map(|_: ()| ())
        );
        assert!(check_epsilon(-1.0).is_err());
        assert!(check_epsilon(f64::NAN).is_err());
        assert!(check_epsilon(f64::INFINITY).is_err());
    }

    #[test]
    fn display_messages() {
        let e = PglpError::BudgetExhausted {
            requested: 2.0,
            remaining: 0.5,
        };
        assert!(e.to_string().contains("exhausted"));
        assert!(PglpError::LocationOutOfDomain(CellId(3))
            .to_string()
            .contains("c3"));
        assert!(PglpError::InvalidEpsilon(-1.0).to_string().contains("-1"));
        assert!(PglpError::EmptyLocationSet
            .to_string()
            .contains("non-empty"));
        assert!(PglpError::DomainMismatch.to_string().contains("domains"));
    }
}
