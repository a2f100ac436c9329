//! Digests of every result at the default seed (`EXPERIMENT_SEED`),
//! recorded from a run whose invariants held. A change to any result
//! bit fails the benchmark's output check until this table is
//! deliberately updated.

pub const STORED: &[(&str, u64)] = &[
    ("paper_eval/drastic/TEG_Original", 0x1e5d_2f0c_dd57_7f8a),
    ("paper_eval/drastic/TEG_LoadBalance", 0x87aa_6a7f_5028_9f25),
    ("paper_eval/irregular/TEG_Original", 0xfadf_e486_76cd_7227),
    (
        "paper_eval/irregular/TEG_LoadBalance",
        0x20d9_f2bb_f7d3_7a4a,
    ),
    ("paper_eval/common/TEG_Original", 0xc052_db3b_dfcf_fce2),
    ("paper_eval/common/TEG_LoadBalance", 0x4227_780b_3589_9771),
    ("fleet_stream/common/TEG_LoadBalance", 0x756c_d74c_bb41_4d71),
    ("placement_loop/round_robin", 0x1772_6e5a_56b4_3e4e),
    ("placement_loop/coolest_first", 0x7d92_bf96_8b20_d3e3),
    ("placement_loop/harvest_aware", 0x92c0_7ea6_19fd_8a46),
];
