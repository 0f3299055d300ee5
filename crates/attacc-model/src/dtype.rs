//! Numeric data types used by model weights, activations and KV caches.

use std::fmt;

/// A numeric element type.
///
/// The AttAcc paper evaluates FP16 models (LLAMA 65B, GPT-3 175B), an INT8
/// model (MT-NLG 530B, quantized with SmoothQuant), and an FP16-vs-INT8
/// sensitivity study (Fig. 16). FP32 appears inside the softmax unit
/// datapath, and BF16 is included for completeness.
///
/// # Example
/// ```
/// use attacc_model::DataType;
/// assert_eq!(DataType::Fp16.bytes(), 2);
/// assert_eq!(DataType::Int8.bits(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// 32-bit IEEE-754 floating point.
    Fp32,
    /// 16-bit IEEE-754 floating point (the paper's default).
    Fp16,
    /// 16-bit bfloat.
    Bf16,
    /// 8-bit signed integer (SmoothQuant-style quantization).
    Int8,
}

impl DataType {
    /// Size of one element in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            DataType::Fp32 => 4,
            DataType::Fp16 | DataType::Bf16 => 2,
            DataType::Int8 => 1,
        }
    }

    /// Size of one element in bits.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.bytes() * 8
    }

    /// `true` for floating-point types.
    #[must_use]
    pub const fn is_float(self) -> bool {
        matches!(self, DataType::Fp32 | DataType::Fp16 | DataType::Bf16)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Fp32 => "FP32",
            DataType::Fp16 => "FP16",
            DataType::Bf16 => "BF16",
            DataType::Int8 => "INT8",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_consistent() {
        for dt in [DataType::Fp32, DataType::Fp16, DataType::Bf16, DataType::Int8] {
            assert_eq!(dt.bits(), dt.bytes() * 8);
        }
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(DataType::Fp16.to_string(), "FP16");
        assert_eq!(DataType::Int8.to_string(), "INT8");
    }

    #[test]
    fn float_classification() {
        assert!(DataType::Fp16.is_float());
        assert!(!DataType::Int8.is_float());
    }
}
