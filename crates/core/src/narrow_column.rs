//! A class chunk's per-class numbers — its classes' set sizes and row
//! ends — stored at the narrowest width that fits them.
//!
//! On an Epinions-like graph at k = 2 every set size fits a byte and
//! almost every chunk holds fewer than 65,536 pairs, so a column takes 1
//! or 2 bytes a class where `u32`s take 4. A wider alphabet, a larger k
//! or a heavier chunk widens only the columns that need it.

/// A list of `u32` values stored as `u8`s, `u16`s or `u32`s: always the
/// narrowest of the three that fits the largest value — the column's
/// canonical form, which a build and every edit keep, and
/// `validate` checks ([`NarrowColumn::is_narrowest`]). An empty column
/// stores `u8`s.
///
/// A push that does not fit the width widens the column; nothing narrows
/// one in place. A writer that may lower the largest value rebuilds the
/// column from its values instead ([`NarrowColumn::from_values`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum NarrowColumn {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// Evaluates `$body` with `$v` bound to a column's values as a slice of
/// the type they are stored as. The body is compiled once per width, so a
/// loop inside it reads its values without resolving the width again.
macro_rules! with_values {
    ($column:expr, |$v:ident| $body:expr) => {
        match $column {
            $crate::narrow_column::NarrowColumn::U8($v) => $body,
            $crate::narrow_column::NarrowColumn::U16($v) => $body,
            $crate::narrow_column::NarrowColumn::U32($v) => $body,
        }
    };
}
pub(crate) use with_values;

/// Bytes a value at the narrowest width that fits `largest`.
fn width_for(largest: u32) -> usize {
    match largest {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        _ => 4,
    }
}

/// A stored value as the `u32` it stands for (generic, so one call serves
/// every width a `with_values!` body is compiled for).
#[inline]
pub(crate) fn widen<E: Into<u32>>(value: E) -> u32 {
    value.into()
}

impl Default for NarrowColumn {
    fn default() -> Self {
        NarrowColumn::U8(Vec::new())
    }
}

impl NarrowColumn {
    /// An empty column with room for `n` values, at the width that fits
    /// `largest` — for a writer that knows the largest value up front, so
    /// no push widens it.
    pub(crate) fn with_capacity(n: usize, largest: u32) -> Self {
        match width_for(largest) {
            1 => NarrowColumn::U8(Vec::with_capacity(n)),
            2 => NarrowColumn::U16(Vec::with_capacity(n)),
            _ => NarrowColumn::U32(Vec::with_capacity(n)),
        }
    }

    /// The column of `values`, at the width their largest one needs.
    pub(crate) fn from_values(values: &[u32]) -> Self {
        let largest = values.iter().copied().max().unwrap_or(0);
        let mut column = Self::with_capacity(values.len(), largest);
        values.iter().for_each(|&v| column.push(v));
        column
    }

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        with_values!(self, |v| v.len())
    }

    /// Bytes a value is stored in: 1, 2 or 4.
    pub(crate) fn width(&self) -> usize {
        match self {
            NarrowColumn::U8(_) => 1,
            NarrowColumn::U16(_) => 2,
            NarrowColumn::U32(_) => 4,
        }
    }

    /// The `i`-th value.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        with_values!(self, |v| widen(v[i]))
    }

    /// The last value, if any.
    pub(crate) fn last(&self) -> Option<u32> {
        with_values!(self, |v| v.last().copied().map(widen))
    }

    /// Every value, widened to `u32`.
    pub(crate) fn to_vec(&self) -> Vec<u32> {
        with_values!(self, |v| v.iter().copied().map(widen).collect())
    }

    /// Appends `value`, widening the column first if it does not fit.
    pub(crate) fn push(&mut self, value: u32) {
        if width_for(value) > self.width() {
            self.widen_to(width_for(value));
        }
        match self {
            NarrowColumn::U8(v) => v.push(value as u8),
            NarrowColumn::U16(v) => v.push(value as u16),
            NarrowColumn::U32(v) => v.push(value),
        }
    }

    /// Overwrites the `i`-th value, widening the column first if `value`
    /// does not fit; a smaller value leaves the width as it is.
    #[cfg(test)]
    pub(crate) fn set(&mut self, i: usize, value: u32) {
        if width_for(value) > self.width() {
            self.widen_to(width_for(value));
        }
        match self {
            NarrowColumn::U8(v) => v[i] = value as u8,
            NarrowColumn::U16(v) => v[i] = value as u16,
            NarrowColumn::U32(v) => v[i] = value,
        }
    }

    /// Re-stores the values `width` bytes each, keeping the capacity.
    fn widen_to(&mut self, width: usize) {
        let values = self.to_vec();
        let capacity = with_values!(self, |v| v.capacity());
        *self = match width {
            2 => NarrowColumn::U16(Vec::with_capacity(capacity)),
            _ => NarrowColumn::U32(Vec::with_capacity(capacity)),
        };
        values.into_iter().for_each(|v| self.push(v));
    }

    /// Whether the values are stored at the narrowest width that fits
    /// the largest of them.
    pub(crate) fn is_narrowest(&self) -> bool {
        let largest = with_values!(self, |v| v.iter().copied().map(widen).max().unwrap_or(0));
        self.width() == width_for(largest)
    }

    /// Bytes the column stores: its values at their width, and a byte
    /// naming the width.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.len() * self.width() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values on both sides of each width boundary.
    const VALUES: [u32; 9] = [0, 1, 254, 255, 256, 65_535, 65_536, 1 << 24, u32::MAX];

    /// The width a model of the column's values calls for.
    fn model_width(model: &[u32]) -> usize {
        match model.iter().max() {
            Some(&v) if v > 0xFFFF => 4,
            Some(&v) if v > 0xFF => 2,
            _ => 1,
        }
    }

    /// Holds `column` to `model`: the same values, at the narrowest width
    /// that fits them, counted at that width.
    fn assert_reads_like(column: &NarrowColumn, model: &[u32]) {
        assert_eq!(column.to_vec(), model);
        assert_eq!(column.len(), model.len());
        assert!((0..model.len()).all(|i| column.get(i) == model[i]));
        assert_eq!(column.last(), model.last().copied());
        assert_eq!(column.width(), model_width(model), "{model:?}");
        assert!(column.is_narrowest());
        assert_eq!(column.stored_bytes(), model.len() * model_width(model) + 1);
    }

    #[test]
    fn a_push_past_a_boundary_widens_the_column() {
        for (below, above, wide) in [(255, 256, 2), (65_535, 65_536, 4)] {
            let mut column = NarrowColumn::from_values(&[0, below]);
            assert_eq!(column.width(), wide / 2);
            column.push(above);
            assert_reads_like(&column, &[0, below, above]);
            assert_eq!(column.width(), wide);
            // A rebuild without the wide value narrows it again.
            assert_reads_like(&NarrowColumn::from_values(&[0, below]), &[0, below]);
        }
        assert_reads_like(&NarrowColumn::default(), &[]);
        assert_eq!(NarrowColumn::default(), NarrowColumn::from_values(&[]));
    }

    /// A value set below the largest leaves the width where it is: the
    /// column is then wider than it needs, which `is_narrowest` reports.
    #[test]
    fn a_smaller_value_set_in_place_leaves_the_width() {
        let mut column = NarrowColumn::from_values(&[3, 256]);
        column.set(1, 4);
        assert_eq!((column.to_vec(), column.width()), (vec![3, 4], 2));
        assert!(!column.is_narrowest());
        column.set(0, 70_000);
        assert_eq!((column.to_vec(), column.width()), (vec![70_000, 4], 4));
        assert!(column.is_narrowest());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against a `Vec<u32>` model, a run of pushes of values on both
        /// sides of each width boundary, with now and then a rebuild from
        /// a prefix of the values (which may drop the widest ones), keeps
        /// the column reading like the model at the narrowest width.
        #[test]
        fn pushes_and_rebuilds_read_like_the_model(
            ops in prop::collection::vec((0usize..VALUES.len(), 0usize..8, 0usize..40), 0..60),
        ) {
            let mut model: Vec<u32> = Vec::new();
            let mut column = NarrowColumn::default();
            for (value, rebuild, keep) in ops {
                if rebuild == 0 {
                    model.truncate(keep);
                    column = NarrowColumn::from_values(&model);
                } else {
                    model.push(VALUES[value]);
                    column.push(VALUES[value]);
                }
                assert_reads_like(&column, &model);
                let largest = model.iter().copied().max().unwrap_or(0);
                let sized = NarrowColumn::with_capacity(model.len(), largest);
                prop_assert_eq!(sized.width(), column.width());
            }
        }
    }
}
