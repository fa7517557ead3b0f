//! A module that denies lossy casts, as each codec module of the tree does.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

pub fn truncate(v: u64) -> u32 {
    v as u32 // fires: clippy::cast_possible_truncation
}

pub fn wrap(v: u64) -> i64 {
    v as i64 // fires: clippy::cast_possible_wrap
}

pub fn lose_sign(v: i64) -> u64 {
    v as u64 // fires: clippy::cast_sign_loss
}

pub fn widen(v: u32) -> u64 {
    v as u64
}
