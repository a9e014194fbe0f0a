//! Integer environment knobs (`NVMM_*`), read one way everywhere: a
//! knob that is set must be an unsigned integer, so a mistyped value
//! (`NVMM_MC_THREADS=two`) stops the program instead of silently
//! running the default.

/// The unsigned integer knob `name` (e.g. `NVMM_OPS`), or `default` when
/// it is unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but is not
/// an unsigned integer (`NVMM_OPS=1e3`).
pub fn env_u64(name: &str, default: u64) -> u64 {
    let value = std::env::var_os(name);
    let value = value.as_ref().map(|v| v.to_string_lossy());
    parse_u64_knob(name, value.as_deref(), default).unwrap_or_else(|err| panic!("{err}"))
}

/// The pure half of [`env_u64`]: `value` is the variable's contents, or
/// `None` when it is unset.
fn parse_u64_knob(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not an unsigned integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parse_takes_default_value_or_fails_naming_the_knob() {
        for (name, default) in [
            ("NVMM_OPS", 400),
            ("NVMM_THREADS", 2),
            ("NVMM_MC_THREADS", 2),
            ("NVMM_EPOCH_NS", 0),
        ] {
            assert_eq!(parse_u64_knob(name, None, default), Ok(default));
            assert_eq!(parse_u64_knob(name, Some("30"), default), Ok(30));
            assert_eq!(parse_u64_knob(name, Some("0"), default), Ok(0));
            for bad in ["1e3", "", " 30", "-1", "thirty", "two", "1.5"] {
                let err = parse_u64_knob(name, Some(bad), default).unwrap_err();
                assert_eq!(err, format!("{name}={bad:?} is not an unsigned integer"));
            }
        }
    }
}
