//! Property tests: every encodable packet parses back to itself, no
//! random byte soup can crash a parser, and the Internet checksum
//! self-verifies. Runs on the in-repo `testkit` harness.

use testkit::prop::{one_of, range, tuple2, uniform, vec_of, Gen};
use testkit::{tk_assert, tk_assert_eq};
use wire::ip::protocol;
use wire::options::{DssMapping, MAX_SACK_BLOCKS};
use wire::{Ecn, Ipv4Header, TcpFlags, TcpHeader, TcpOption, TdnId, TdnNotification};

fn arb_flags() -> Gen<TcpFlags> {
    uniform::<u8>().map(|b| TcpFlags::from_byte(b & !0x20))
}

fn arb_tdn_opt() -> Gen<Option<TdnId>> {
    testkit::prop::option_of(uniform::<u8>().map(TdnId))
}

fn arb_option() -> Gen<TcpOption> {
    one_of(vec![
        uniform::<u16>().map(TcpOption::Mss),
        range(0u8..15).map(TcpOption::WindowScale),
        testkit::prop::just(TcpOption::SackPermitted),
        vec_of(tuple2(uniform::<u32>(), uniform::<u32>()), 1..MAX_SACK_BLOCKS + 1)
            .map(TcpOption::Sack),
        tuple2(range(0u8..16), uniform::<u8>())
            .map(|(version, num_tdns)| TcpOption::TdCapable { version, num_tdns }),
        tuple2(arb_tdn_opt(), arb_tdn_opt())
            .map(|(data_tdn, ack_tdn)| TcpOption::TdDataAck { data_tdn, ack_tdn }),
        tuple2(uniform::<u64>(), uniform::<u64>()).map(|(key, peer)| TcpOption::MpCapable {
            version: 1,
            flags: 0x01,
            sender_key: (key % 3 > 0).then_some(key),
            receiver_key: (key % 3 > 1).then_some(peer),
        }),
        uniform::<u64>().map(|ack| TcpOption::MpDss {
            data_ack: Some(ack),
            map: None,
        }),
        arb_dss_map().map(|map| TcpOption::MpDss {
            data_ack: None,
            map: Some(map),
        }),
        tuple2(uniform::<u64>(), arb_dss_map()).map(|(ack, map)| TcpOption::MpDss {
            data_ack: Some(ack),
            map: Some(map),
        }),
    ])
}

fn arb_dss_map() -> Gen<DssMapping> {
    testkit::prop::tuple3(uniform::<u64>(), uniform::<u32>(), uniform::<u16>()).map(
        |(data_seq, subflow_seq, len)| DssMapping {
            data_seq,
            subflow_seq,
            len,
        },
    )
}

testkit::props! {
    fn tcp_option_round_trip(opt in arb_option()) {
        let mut buf = Vec::new();
        opt.emit(&mut buf);
        tk_assert_eq!(buf.len(), opt.wire_len());
        let (parsed, used) = TcpOption::parse(&buf).unwrap().unwrap();
        tk_assert_eq!(used, buf.len());
        tk_assert_eq!(parsed, opt);
    }

    fn tcp_header_round_trip(
        input in testkit::prop::tuple8(
            uniform::<u16>(),
            uniform::<u16>(),
            uniform::<u32>(),
            uniform::<u32>(),
            arb_flags(),
            uniform::<u16>(),
            vec_of(arb_option(), 0..3),
            vec_of(uniform::<u8>(), 0..256),
        )
    ) {
        let (src_port, dst_port, seq, ack, flags, window, opts, payload) = input;
        // Keep total option length within the 40-byte budget.
        let mut total = 0;
        let options: Vec<TcpOption> = opts
            .into_iter()
            .take_while(|o| {
                total += o.wire_len();
                total <= 40
            })
            .collect();
        let header = TcpHeader { src_port, dst_port, seq, ack, flags, window, options };
        let ip = Ipv4Header::new(0x0A000001, 0x0A000002, protocol::TCP);
        let mut buf = Vec::new();
        header.emit(&mut buf, &ip, &payload);
        let (parsed, off) = TcpHeader::parse(&buf, &ip).unwrap();
        tk_assert_eq!(parsed, header);
        tk_assert_eq!(&buf[off..], &payload[..]);
    }

    fn ipv4_round_trip(
        input in testkit::prop::tuple8(
            range(0u8..64),
            range(0u8..4),
            uniform::<u16>(),
            uniform::<u8>(),
            uniform::<u8>(),
            uniform::<u32>(),
            uniform::<u32>(),
            range(0usize..9000),
        )
    ) {
        let (dscp, ecn_bits, ident, ttl, proto, src, dst, payload_len) = input;
        let h = Ipv4Header {
            dscp,
            ecn: Ecn::from_bits(ecn_bits),
            ident,
            ttl,
            protocol: proto,
            src,
            dst,
        };
        let mut buf = Vec::new();
        h.emit(&mut buf, payload_len);
        let (parsed, total) = Ipv4Header::parse(&buf).unwrap();
        tk_assert_eq!(parsed, h);
        tk_assert_eq!(total as usize, 20 + payload_len);
    }

    fn icmp_notification_round_trip(id in uniform::<u8>()) {
        let n = TdnNotification { active_tdn: TdnId(id) };
        let mut buf = Vec::new();
        n.emit(&mut buf);
        tk_assert_eq!(TdnNotification::parse(&buf).unwrap(), n);
    }

    fn option_parser_never_panics(bytes in vec_of(uniform::<u8>(), 0..64)) {
        let _ = TcpOption::parse_all(&bytes);
    }

    fn ipv4_parser_never_panics(bytes in vec_of(uniform::<u8>(), 0..64)) {
        let _ = Ipv4Header::parse(&bytes);
    }

    fn tcp_parser_never_panics(bytes in vec_of(uniform::<u8>(), 0..128)) {
        let ip = Ipv4Header::new(1, 2, protocol::TCP);
        let _ = TcpHeader::parse(&bytes, &ip);
    }

    fn icmp_parser_never_panics(bytes in vec_of(uniform::<u8>(), 0..32)) {
        let _ = TdnNotification::parse(&bytes);
    }

    // New with the testkit port: the Internet checksum self-verifies for
    // arbitrary payloads — appending the computed checksum makes the
    // whole buffer verify, and corrupting any single byte breaks it.
    fn checksum_self_verifies(
        input in tuple2(vec_of(uniform::<u8>(), 0..512), uniform::<u16>())
    ) {
        let (mut data, corrupt_at) = input;
        // Pad to even length: the checksum is appended as a 16-bit word,
        // so the verify pass must see it word-aligned.
        if data.len() % 2 == 1 {
            data.push(0);
        }
        let ck = wire::checksum::internet_checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        tk_assert!(wire::checksum::verify(&data), "checksum must verify");
        // Flip one byte: verification must fail. A single-byte change
        // shifts the one's-complement sum by a nonzero delta strictly
        // smaller than 0xFFFF, so it can never alias to a valid sum.
        let idx = corrupt_at as usize % data.len();
        data[idx] ^= 0x5A;
        tk_assert!(
            !wire::checksum::verify(&data),
            "corruption at {idx} must break verification"
        );
    }

    // New with the testkit port: TDTCP option flag byte round-trips its
    // subtype nibble for every TDN pair (wire/src/options.rs TdDataAck).
    fn td_data_ack_flag_bits(pair in tuple2(arb_tdn_opt(), arb_tdn_opt())) {
        let (data_tdn, ack_tdn) = pair;
        let opt = TcpOption::TdDataAck { data_tdn, ack_tdn };
        let mut buf = Vec::new();
        opt.emit(&mut buf);
        // kind, len, subtype/flags, data tdn, ack tdn
        tk_assert_eq!(buf.len(), 5);
        let (parsed, _) = TcpOption::parse(&buf).unwrap().unwrap();
        tk_assert_eq!(parsed, opt);
    }
}
