//! Table 2: cross-country content overlap (Britain / Germany / Turkey).
//!
//! The paper reports, for each ordered country pair, the percentage of
//! objects (and of traffic) accessed in the first country that are also
//! accessed in the second. We map Britain→London, Germany→Frankfurt,
//! Turkey→Istanbul and compute the same statistic on the production
//! workload.

use spacegen::classes::TrafficClass;
use spacegen::validate::overlap_matrices;
use starcdn_bench::table::print_table;
use starcdn_bench::workload::Workload;
use starcdn_bench::Args;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let n = w.locations.len();
    let m = overlap_matrices(&w.production, n);

    let countries = [("Britain", "London"), ("Germany", "Frankfurt"), ("Turkey", "Istanbul")];
    let idx: Vec<usize> = countries
        .iter()
        .map(|(_, city)| w.locations.iter().position(|l| l.name == *city).unwrap())
        .collect();

    // Paper's Table 2, row-major: objects% (traffic%).
    let paper = [
        ["100%", "11% (49%)", "2% (15%)"],
        ["16% (45%)", "100%", "4% (31%)"],
        ["23% (37%)", "34% (72%)", "100%"],
    ];

    let mut rows = Vec::new();
    for (ri, (rname, _)) in countries.iter().enumerate() {
        let mut cells = vec![rname.to_string()];
        for ci in 0..3 {
            let measured = if ri == ci {
                "100%".to_string()
            } else {
                format!(
                    "{:.0}% ({:.0}%)",
                    m.objects[idx[ri]][idx[ci]] * 100.0,
                    m.traffic[idx[ri]][idx[ci]] * 100.0
                )
            };
            cells.push(format!("{} [paper {}]", measured, paper[ri][ci]));
        }
        rows.push(cells);
    }
    print_table(
        "Table 2: objects% (traffic%) of row country also accessed in column country — measured [paper]",
        &["country", "Britain", "Germany", "Turkey"],
        &rows,
    );
    println!(
        "\ntrace: {} requests / {} unique objects",
        w.production.len(),
        w.production.unique_objects().0
    );
}
