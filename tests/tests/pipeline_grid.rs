//! The pipeline grid's own groups: short random reads, the report and the ablations,
//! sections, and a large two-word table, each against the oracle. The table, the
//! oracle and the check every row goes through are `grid/mod.rs`; the grid's other
//! groups are tests of `properties.rs`, `end_to_end.rs` and `ingest.rs`.

#[macro_use]
mod grid;

use grid::Group;

grid_tests! {
    arbitrary_short_reads_match_the_oracle => Group::Arbitrary;
    the_report_and_the_ablations_match_the_oracle => Group::Ablations;
    sectioned_tasks_match_the_oracle_on_every_layout => Group::Sections;
    a_large_two_word_table_matches_the_oracle_on_both_backends => Group::TwoWordTable;
}
