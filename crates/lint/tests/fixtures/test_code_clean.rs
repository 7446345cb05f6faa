// Fixture: test items are exempt from every rule. Expect no violations.
use std::collections::HashMap;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wall_clock_and_hash_iteration_are_fine_here() {
        let t0 = Instant::now();
        let map: HashMap<u32, u32> = HashMap::new();
        for (k, v) in &map {
            assert!(k <= v);
        }
        drop(t0);
    }
}
