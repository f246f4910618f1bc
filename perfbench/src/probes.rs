//! Layer probes: the traced run times calls into a layer's public entry
//! points at the shapes its workload uses. Each probe repeats its call until
//! [`PROBE_TIME`] has passed and reports the mean per call (or a rate over
//! all calls), with the call count as its sample count.

use std::hint::black_box;
use std::time::{Duration, Instant};

use plaintext_recovery::{
    candidates::generate_candidates,
    charset::Charset,
    likelihood::PairLikelihoods,
    viterbi::{list_viterbi, ViterbiConfig},
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rc4_accel::{AutoBatch, KeystreamBatch};
use rc4_attacks::experiments::{tls_cookie::TlsCookieConfig, Scale};
use rc4_stats::{tsc::PerTscDataset, GenerationConfig, StorableDataset};
use rc4_store::codec::{decode_cells_delta_varint, encode_cells_delta_varint};
use wpa_tkip::{
    attack::{recover_mic_key, AttackConfig, TrailerStatistics},
    model::{TkipKeystreamModel, TscClassing},
    mpdu::{FrameAddressing, TRAILER_LEN},
    net::{build_tcp_msdu, Ipv4Header, TcpHeader},
    Tsc,
};

use crate::report::Outcome;

/// Minimum time each probe runs.
const PROBE_TIME: Duration = Duration::from_millis(250);

/// Calls `f` until [`PROBE_TIME`] has passed (at least twice, the first
/// call as a warm-up); returns (mean seconds per timed call, timed calls).
fn repeat<T>(mut f: impl FnMut() -> T) -> (f64, usize) {
    black_box(f());
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < PROBE_TIME {
        black_box(f());
        calls += 1;
    }
    (start.elapsed().as_secs_f64() / calls as f64, calls)
}

fn keys(seed: u64, n: usize, key_len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * key_len).map(|_| rng.gen()).collect()
}

/// Keystream layer: AutoBatch rekeying `per_key` bytes per fresh 16-byte
/// key (`rekey_keys_per_s`) and, when `bulk_len > 0`, one batch of lanes
/// streaming `bulk_len` bytes each (`bulk_mb_per_s`).
pub fn keystream(seed: u64, per_key: usize, bulk_len: usize, out: &mut Outcome) {
    const KEYS: usize = 4096;
    let mut engine = AutoBatch::new();
    let lanes = engine.lanes();
    let key_buf = keys(seed, KEYS, 16);
    let mut ks = vec![0u8; lanes * per_key];
    let (secs, calls) = repeat(|| {
        for batch in key_buf.chunks(lanes * 16) {
            engine.schedule(batch, 16).expect("16-byte keys are valid");
            let n = batch.len() / 16;
            engine.fill(&mut ks[..n * per_key], per_key);
        }
        ks[0]
    });
    out.put("rc4_accel.rekey_keys_per_s", KEYS as f64 / secs, calls);
    if bulk_len > 0 {
        let mut bulk = vec![0u8; lanes * bulk_len];
        let (secs, calls) = repeat(|| {
            engine
                .schedule(&key_buf[..lanes * 16], 16)
                .expect("16-byte keys are valid");
            engine.fill(&mut bulk, bulk_len);
            bulk[0]
        });
        out.put(
            "rc4_accel.bulk_mb_per_s",
            bulk.len() as f64 / 1e6 / secs,
            calls,
        );
    }
}

/// Counting layer at the campaign's lease shape: one lease's keys into a
/// per-TSC table of `shape`, on one thread as a campaign worker runs it.
pub fn per_tsc_generation(shape: &[u64], config: &GenerationConfig, out: &mut Outcome) {
    let (secs, calls) = repeat(|| {
        let mut ds = PerTscDataset::empty_with_shape(shape).expect("shape validated by plan");
        rc4_stats::storable::generate_storable_with_exec(
            &mut ds,
            config,
            &rc4_exec::Executor::new(1),
        )
        .expect("config validated by plan");
        ds.recorded_keystreams()
    });
    out.put("rc4_stats.generate_s.per_tsc", secs, calls);
    out.put("rc4_stats.keys_per_s", config.keys as f64 / secs, calls);
}

/// Store codec: format-v2 delta+varint encode and decode of a table's cells,
/// in MB of decoded cells per second.
pub fn codec(dataset: &impl StorableDataset, out: &mut Outcome) -> Result<(), String> {
    let slices = dataset.cell_slices();
    let cells: usize = slices.iter().map(|s| s.len()).sum();
    let mb = cells as f64 * 8.0 / 1e6;
    let (secs, calls) = repeat(|| encode_cells_delta_varint(slices.iter().copied()));
    out.put("rc4_store.v2_encode_mb_per_s", mb / secs, calls);
    let encoded = encode_cells_delta_varint(slices.iter().copied());
    let mut decoded = vec![0u64; cells];
    let mut ok = true;
    let (secs, calls) = repeat(|| {
        ok &= decode_cells_delta_varint(&encoded, &mut decoded) == Some(encoded.len());
    });
    if !ok {
        return Err("delta+varint decode did not consume its own encoding".to_string());
    }
    out.put("rc4_store.v2_decode_mb_per_s", mb / secs, calls);
    Ok(())
}

/// Statistics layer at the bias suite's shapes: a chi-squared uniformity
/// test per position of a 384-position single-byte table, an M-test of
/// independence on a 256x256 pair table and a proportion test per pair cell
/// row.
pub fn stat_tests(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let singles: Vec<Vec<u64>> = (0..384)
        .map(|_| (0..256).map(|_| 200 + rng.gen_range(0..64u64)).collect())
        .collect();
    let pairs: Vec<u64> = (0..65536).map(|_| 8 + rng.gen_range(0..8u64)).collect();
    let mut failed = false;
    let (secs, calls) = repeat(|| {
        for counts in &singles {
            failed |= stat_tests::chisq::chi_squared_uniform(counts).is_err();
        }
        failed |= stat_tests::mtest::m_test_independence(&pairs, 256, 256).is_err();
        for row in pairs.chunks(256) {
            failed |=
                stat_tests::proportion::proportion_test(row[0], row.iter().sum(), 1.0 / 256.0)
                    .is_err();
        }
    });
    if failed {
        return Err("a statistics call rejected well-formed counts".to_string());
    }
    out.put("stat_tests.s", secs, calls);
    Ok(())
}

/// Recovery layer at the attack shapes: Eq.-15 sparse pair scoring of a
/// 65536-cell table (fig7/fig10), a list-Viterbi decode of a 6-byte base64
/// span keeping 256 candidates (fig10 / tls-cookie) and Algorithm-1
/// candidate generation over the 12-byte TKIP trailer (fig8's 2^10 list).
pub fn recovery(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let counts: Vec<u64> = (0..65536).map(|_| rng.gen_range(0..977u64)).collect();
    let total = counts.iter().sum();
    let cells: Vec<(u8, u8, f64)> = rc4_biases::fm::fm_biases_at(257)
        .into_iter()
        .map(|b| (b.first, b.second, b.probability))
        .collect();
    let (secs, calls) = repeat(|| {
        PairLikelihoods::from_counts_sparse(&counts, &cells, 1.0 / 65536.0, total)
            .expect("well-formed counts")
    });
    out.put("plaintext_recovery.likelihood_s", secs, calls);

    let transitions = (0..7)
        .map(|_| {
            let log = (0..65536).map(|_| rng.gen_range(0.0..8.0)).collect();
            PairLikelihoods::from_log_values(log).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let config = ViterbiConfig {
        first_known: b'=',
        last_known: b';',
        candidates: 256,
        charset: Charset::base64(),
    };
    let (secs, calls) = repeat(|| list_viterbi(&transitions, &config).expect("well-formed decode"));
    out.put("plaintext_recovery.viterbi_s", secs, calls);

    let tkip = TkipProbe::new(seed, 1 << 13)?;
    let likelihoods = tkip
        .stats
        .likelihoods(&tkip.model)
        .map_err(|e| e.to_string())?;
    const CANDIDATES: usize = 1 << 10;
    let (secs, calls) = repeat(|| {
        generate_candidates(&likelihoods, CANDIDATES, &Charset::full()).expect("12 positions")
    });
    out.put("plaintext_recovery.candidates_s", secs, calls);
    out.put(
        "plaintext_recovery.candidates_per_s",
        CANDIDATES as f64 / secs,
        calls,
    );
    Ok(())
}

/// The WPA-TKIP substrate: captures sampled from a synthetic per-TSC model
/// for one injected packet, as the tkip-attack experiment does.
struct TkipProbe {
    stats: TrailerStatistics,
    model: TkipKeystreamModel,
    msdu: Vec<u8>,
    addressing: FrameAddressing,
}

impl TkipProbe {
    fn new(seed: u64, captures: u64) -> Result<TkipProbe, String> {
        let addressing = FrameAddressing {
            dst: [0x00, 0x1f, 0x33, 0x44, 0x55, 0x66],
            src: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
            transmitter: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
            priority: 0,
        };
        let ip = Ipv4Header::tcp([192, 168, 1, 7], [203, 0, 113, 10], 7, 64);
        let tcp = TcpHeader {
            src_port: 52311,
            dst_port: 80,
            seq: 0x1000_0000,
            ack: 0x2000_0000,
            flags: 0x18,
            window: 29200,
        };
        let msdu = build_tcp_msdu(&ip, &tcp, b"ATTACK!");
        let model =
            TkipKeystreamModel::synthetic(TscClassing::Tsc1, msdu.len() + 1, TRAILER_LEN, 4.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mic_key = crypto_prims::michael::MichaelKey {
            l: rng.gen(),
            r: rng.gen(),
        };
        let mut mic_input = addressing.michael_header().to_vec();
        mic_input.extend_from_slice(&msdu);
        let mic = crypto_prims::michael::michael(mic_key, &mic_input);
        let mut body = msdu.clone();
        body.extend_from_slice(&mic);
        let mut trailer = mic.to_vec();
        trailer.extend_from_slice(&crypto_prims::crc32::icv(&body));
        let mut stats = TrailerStatistics::new(256, msdu.len()).map_err(|e| e.to_string())?;
        let mut ct = vec![0u8; msdu.len() + TRAILER_LEN];
        for i in 0..captures {
            let class = model.class_of(Tsc(i + 1));
            for (idx, slot) in ct.iter_mut().enumerate().skip(msdu.len()) {
                let z = rc4_attacks::sampling::sample_index(
                    model.distribution(class, idx + 1),
                    &mut rng,
                );
                *slot = trailer[idx - msdu.len()] ^ z as u8;
            }
            stats.add(class, &ct).map_err(|e| e.to_string())?;
        }
        Ok(TkipProbe {
            stats,
            model,
            msdu,
            addressing,
        })
    }
}

/// The TKIP and TLS substrates at their quick-scale experiment shapes:
/// MIC-key recovery from 5000 captures with a 2^10 candidate budget, and
/// capture plus candidate scoring of 1500 real TLS RC4-SHA1 requests.
pub fn substrates(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let tkip = TkipProbe::new(seed, 5_000)?;
    let config = AttackConfig {
        max_candidates: 1 << 10,
    };
    let (secs, calls) = repeat(|| {
        recover_mic_key(
            &tkip.stats,
            &tkip.model,
            &tkip.msdu,
            &tkip.addressing,
            &config,
        )
        .is_ok()
    });
    out.put("wpa_tkip.attack_s", secs, calls);

    let cfg = TlsCookieConfig::for_scale(Scale::Quick);
    let cookie = cfg.cookie.as_bytes().to_vec();
    let mut template = tls_rc4::http::RequestTemplate::new("site.com", "auth", cookie.len());
    template.align_cookie(0, 0, tls_rc4::record::MAC_LEN);
    let capture = || -> Result<tls_rc4::attack::CookieStatistics, String> {
        let mut traffic = tls_rc4::traffic::TrafficGenerator::new(
            template.clone(),
            cookie.clone(),
            tls_rc4::traffic::TrafficConfig {
                seed: seed ^ cfg.seed,
                ..tls_rc4::traffic::TrafficConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let mut stats = tls_rc4::attack::CookieStatistics::new(&template, cfg.max_gap)
            .map_err(|e| e.to_string())?;
        let mut captured = 0;
        while captured < cfg.captures {
            let batch = (cfg.captures - captured).min(1024) as usize;
            for c in traffic.capture(batch).map_err(|e| e.to_string())? {
                stats.add(&c).map_err(|e| e.to_string())?;
            }
            captured += batch as u64;
        }
        Ok(stats)
    };
    let (secs, calls) = repeat(|| capture().is_ok());
    out.put("tls_rc4.capture_s", secs, calls);
    let stats = capture()?;
    let attack = tls_rc4::attack::CookieAttackConfig {
        max_gap: cfg.max_gap,
        candidates: cfg.candidates,
        charset: cfg.charset.clone(),
        use_fm: true,
        use_absab: true,
    };
    let (secs, calls) = repeat(|| tls_rc4::attack::cookie_candidates(&stats, &attack).is_ok());
    out.put("tls_rc4.score_s", secs, calls);
    Ok(())
}
