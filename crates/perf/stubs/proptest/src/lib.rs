//! Empty offline stand-in for `proptest` (see ../README.md).
