//! Empty offline stand-in for `criterion` (see ../README.md).
