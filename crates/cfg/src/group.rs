//! Grouping into compressed rows, the one layout trick of the flat paths:
//! [`Graph`](crate::Graph)'s adjacency and the flat arrays of the core.

/// Groups the items of `items()` by their group in `0..groups`, keeping
/// their order within each group, in one counting pass and one filling
/// pass: group `g` is `rows[start[g]..start[g + 1]]`. `blank` only
/// initializes the rows before they are filled.
///
/// `items` is called twice and must yield the same sequence both times.
pub fn group_rows<T, I>(groups: usize, blank: T, items: impl Fn() -> I) -> (Vec<u32>, Vec<T>)
where
    T: Copy,
    I: DoubleEndedIterator<Item = (usize, T)>,
{
    let mut start = vec![0u32; groups + 1];
    for (g, _) in items() {
        start[g] += 1;
    }
    // Prefix sums leave start[g] at the end of row g; filling backwards
    // walks it down to the row's start.
    let mut total = 0u32;
    for s in &mut start {
        total += *s;
        *s = total;
    }
    let mut rows = vec![blank; total as usize];
    for (g, item) in items().rev() {
        start[g] -= 1;
        rows[start[g] as usize] = item;
    }
    (start, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_input_order_within_groups() {
        let items = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (3, 'e')];
        let (start, rows) = group_rows(4, ' ', || items.iter().copied());
        assert_eq!(start, vec![0, 2, 2, 4, 5]);
        assert_eq!(rows, vec!['b', 'd', 'a', 'c', 'e']);
    }

    #[test]
    fn no_items_gives_empty_rows() {
        let (start, rows) = group_rows::<u8, _>(3, 0, std::iter::empty);
        assert_eq!(start, vec![0; 4]);
        assert!(rows.is_empty());
    }
}
