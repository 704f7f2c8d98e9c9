#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.hh"

namespace dpc {
namespace net {
namespace {

bool
sameBits(double a, double b)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

Frame
roundTrip(const Frame &in)
{
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(consumed, buf.size());
    return out;
}

/** One representative frame of every type this build decodes,
 * CutBatch once per hot-bitmap mode (seq 0) plus a continuation
 * frame.  Every double-carrying field holds a distinct value so a
 * swapped field shows up. */
std::vector<std::pair<std::string, Frame>>
sampleFrames()
{
    std::vector<std::pair<std::string, Frame>> out;
    {
        Frame f;
        f.type = FrameType::Hello;
        f.hello = HelloMsg{/*shard_id=*/3, /*version=*/kWireVersion,
                           /*udp_port=*/40123, /*tcp_port=*/40124};
        out.emplace_back("Hello", f);
    }
    {
        Frame f;
        f.type = FrameType::Welcome;
        f.welcome.agreed_version = kWireVersion;
        f.welcome.num_shards = 4;
        f.welcome.rounds = 60;
        f.welcome.udp_ports = {1000, 1001, 1002, 1003};
        f.welcome.tcp_ports = {2000, 2001, 2002, 2003};
        out.emplace_back("Welcome", f);
    }
    {
        Frame f;
        f.type = FrameType::RoundGo;
        f.round_go = RoundGoMsg{/*round=*/42, /*global_max_dp=*/0.5,
                                /*stop=*/1};
        out.emplace_back("RoundGo", f);
    }
    {
        Frame f;
        f.type = FrameType::Result;
        ResultMsg &m = f.result;
        m.shard_id = 2;
        m.epoch = 4;
        m.bytes_sent = 1 << 20;
        m.frames_sent = 999;
        m.retransmits = 3;
        m.edges_suppressed = 77;
        m.suppressed_frames = 111;
        m.delta_frames = 222;
        m.wake_messages = 333;
        m.rcvbuf_bytes = 425984;
        m.sndbuf_bytes = 212992;
        m.edges_per_frame_hist[0] = 5;
        m.edges_per_frame_hist[kEdgesPerFrameBuckets - 1] = 6;
        m.final_local_max_dp = 1e-9;
        m.phase_send_s = 0.25;
        m.phase_interior_s = 0.125;
        m.phase_drain_s = 0.0625;
        m.phase_boundary_s = 0.03125;
        m.round_loop_s = 2.5;
        m.node_ids = {5, 9, 13};
        m.power = {160.0, 170.5, 180.25};
        m.estimate = {1e-12, -1e-12, 3e-12};
        out.emplace_back("Result", f);
    }
    const std::pair<const char *, std::uint8_t> modes[] = {
        {"CutBatch/all", kHotAll},
        {"CutBatch/clear", kHotClear},
        {"CutBatch/sparse", kHotSparse},
    };
    for (const auto &[name, mode] : modes) {
        Frame f;
        f.type = FrameType::CutBatch;
        CutBatchMsg &m = f.cut_batch;
        m.sender = 1;
        m.epoch = 9;
        m.round = 0xfedcba9876543210ULL;
        m.seq = 0;
        m.total_changed = 3;
        m.hot_mode = mode;
        if (mode == kHotSparse)
            m.hot_words = {{0u, 0x1ULL}, {3u, 0xdeadbeefcafef00dULL}};
        m.reports = {DpReport{41, 0b1011, 0.001953125},
                     DpReport{42, 0b0001, 0.0078125}};
        m.changed = {{0u, 0x7fULL}, {5u, 0x3ff0000000000001ULL}};
        out.emplace_back(name, f);
    }
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.sender = 2;
        f.cut_batch.round = 7;
        f.cut_batch.seq = 3;
        f.cut_batch.changed = {{4u, 0x55ULL}, {800u, ~0ULL}};
        out.emplace_back("CutBatch/continuation", f);
    }
    {
        Frame f;
        f.type = FrameType::EpochChange;
        f.epoch_change.epoch = 3;
        f.epoch_change.phase = EpochPhase::Resume;
        f.epoch_change.resume_round = 0x123456789abcULL;
        f.epoch_change.dead_mask = 0b1010;
        f.epoch_change.held = {-1234.5, 1.0 / 3.0};
        out.emplace_back("EpochChange", f);
    }
    {
        Frame f;
        f.type = FrameType::EpochAck;
        f.epoch_ack.shard_id = 2;
        f.epoch_ack.epoch = 5;
        f.epoch_ack.phase = EpochPhase::Rollback;
        f.epoch_ack.last_completed = 41;
        f.epoch_ack.sum_p = {513.0, 170.0};
        f.epoch_ack.sum_e = {-1e-12, 2e-12};
        out.emplace_back("EpochAck", f);
    }
    {
        Frame f;
        f.type = FrameType::Heartbeat;
        f.heartbeat = HeartbeatMsg{/*shard_id=*/7, /*epoch=*/2,
                                   /*round=*/0xabcdefULL};
        out.emplace_back("Heartbeat", f);
    }
    return out;
}

/** Rewrite every 64-bit value field a frame carries -- the f64
 * fields, plus the CutBatch records' XOR payloads (the bits of the
 * peer's estimate on a first transmission) -- as map(i, old bits),
 * i counting fields in a fixed order; returns the field count. */
template <class Map>
std::size_t
mapValueFields(Frame &f, Map map)
{
    std::size_t i = 0;
    const auto d = [&](double &x) {
        x = std::bit_cast<double>(
            map(i++, std::bit_cast<std::uint64_t>(x)));
    };
    switch (f.type) {
    case FrameType::RoundGo:
        d(f.round_go.global_max_dp);
        break;
    case FrameType::Result:
        d(f.result.final_local_max_dp);
        d(f.result.phase_send_s);
        d(f.result.phase_interior_s);
        d(f.result.phase_drain_s);
        d(f.result.phase_boundary_s);
        d(f.result.round_loop_s);
        for (double &x : f.result.power)
            d(x);
        for (double &x : f.result.estimate)
            d(x);
        break;
    case FrameType::CutBatch:
        for (DpReport &r : f.cut_batch.reports)
            d(r.max_dp);
        for (auto &rec : f.cut_batch.changed) {
            rec.second = map(i, rec.second);
            ++i;
        }
        break;
    case FrameType::EpochChange:
        for (double &x : f.epoch_change.held)
            d(x);
        break;
    case FrameType::EpochAck:
        for (double &x : f.epoch_ack.sum_p)
            d(x);
        for (double &x : f.epoch_ack.sum_e)
            d(x);
        break;
    default: // Hello, Welcome, Heartbeat: integers only
        break;
    }
    return i;
}

std::vector<std::uint64_t>
valueBits(Frame f)
{
    std::vector<std::uint64_t> bits;
    mapValueFields(f, [&](std::size_t, std::uint64_t b) {
        bits.push_back(b);
        return b;
    });
    return bits;
}

TEST(WireCodecTest, DoublesTravelAsExactBitPatterns)
{
    // Every f64 field of every frame type (and the CutBatch record
    // bits) must survive as the identical IEEE pattern: NaN
    // payloads, signed zeros and subnormals included.
    const double cases[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(0x7ff0000000000001ULL), // signalling
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0, // denormal
        std::numeric_limits<double>::max(),
        std::nextafter(170.0, 0.0),
    };
    for (auto [name, in] : sampleFrames()) {
        const bool carries = in.type != FrameType::Hello &&
                             in.type != FrameType::Welcome &&
                             in.type != FrameType::Heartbeat;
        for (const double x : cases) {
            // Alternate the sign so neighbouring fields differ.
            const std::size_t n = mapValueFields(
                in, [&](std::size_t i, std::uint64_t) {
                    return std::bit_cast<std::uint64_t>(
                        i % 2 == 0 ? x : -x);
                });
            EXPECT_EQ(n > 0, carries) << name;
            const Frame out = roundTrip(in);
            ASSERT_EQ(out.type, in.type) << name;
            EXPECT_EQ(valueBits(out), valueBits(in))
                << name << " value " << x;
        }
    }
}

TEST(WireCodecTest, ControlFramesRoundTrip)
{
    for (const auto &[name, in] : sampleFrames()) {
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, in.type) << name;
        EXPECT_EQ(out.version, kWireVersion) << name;
        switch (in.type) {
        case FrameType::Hello:
            EXPECT_EQ(out.hello.shard_id, 3u);
            EXPECT_EQ(out.hello.version, kWireVersion);
            EXPECT_EQ(out.hello.udp_port, 40123);
            EXPECT_EQ(out.hello.tcp_port, 40124);
            break;
        case FrameType::Welcome:
            EXPECT_EQ(out.welcome.agreed_version, kWireVersion);
            EXPECT_EQ(out.welcome.num_shards, 4u);
            EXPECT_EQ(out.welcome.rounds, 60u);
            EXPECT_EQ(out.welcome.udp_ports, in.welcome.udp_ports);
            EXPECT_EQ(out.welcome.tcp_ports, in.welcome.tcp_ports);
            break;
        case FrameType::RoundGo:
            EXPECT_EQ(out.round_go.round, 42u);
            EXPECT_EQ(out.round_go.stop, 1);
            EXPECT_TRUE(sameBits(out.round_go.global_max_dp, 0.5));
            break;
        case FrameType::Result:
            EXPECT_EQ(out.result.shard_id, 2u);
            EXPECT_EQ(out.result.epoch, 4u);
            EXPECT_EQ(out.result.bytes_sent, 1u << 20);
            EXPECT_EQ(out.result.frames_sent, 999u);
            EXPECT_EQ(out.result.retransmits, 3u);
            EXPECT_EQ(out.result.edges_suppressed, 77u);
            EXPECT_EQ(out.result.edges_per_frame_hist,
                      in.result.edges_per_frame_hist);
            EXPECT_EQ(out.result.node_ids, in.result.node_ids);
            break;
        case FrameType::Heartbeat:
            EXPECT_EQ(out.heartbeat.shard_id, 7u);
            EXPECT_EQ(out.heartbeat.epoch, 2u);
            EXPECT_EQ(out.heartbeat.round, 0xabcdefULL);
            break;
        default: // data plane and recovery: pinned by their own tests
            break;
        }
    }
}

TEST(WireCodecTest, CutBatchCarriesItsEpoch)
{
    // The epoch field is the recovery fence: a batch from an
    // old configuration epoch must arrive tagged so fileBatch can
    // drop it.
    Frame in;
    in.type = FrameType::CutBatch;
    in.cut_batch.sender = 1;
    in.cut_batch.epoch = 0xdeadbeefu;
    in.cut_batch.round = 17;
    in.cut_batch.seq = 2;
    const Frame out = roundTrip(in);
    ASSERT_EQ(out.type, FrameType::CutBatch);
    EXPECT_EQ(out.cut_batch.epoch, 0xdeadbeefu);
}

TEST(WireCodecTest, EpochChangeRoundTripsEveryPhase)
{
    const EpochPhase phases[] = {EpochPhase::Quiesce,
                                 EpochPhase::Rollback,
                                 EpochPhase::Resume};
    for (const EpochPhase ph : phases) {
        Frame in;
        in.type = FrameType::EpochChange;
        in.epoch_change.epoch = 3;
        in.epoch_change.phase = ph;
        in.epoch_change.resume_round = 0x123456789abcULL;
        in.epoch_change.dead_mask = 0b1010;
        if (ph == EpochPhase::Resume)
            in.epoch_change.held = {-1234.5, -0.0, 1.0 / 3.0};
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::EpochChange);
        EXPECT_EQ(out.epoch_change.epoch, 3u);
        EXPECT_EQ(out.epoch_change.phase, ph);
        EXPECT_EQ(out.epoch_change.resume_round,
                  in.epoch_change.resume_round);
        EXPECT_EQ(out.epoch_change.dead_mask, 0b1010u);
        ASSERT_EQ(out.epoch_change.held.size(),
                  in.epoch_change.held.size());
        for (std::size_t i = 0; i < out.epoch_change.held.size();
             ++i)
            EXPECT_TRUE(sameBits(out.epoch_change.held[i],
                                 in.epoch_change.held[i]));
    }
}

TEST(WireCodecTest, EpochAckRoundTripsPartialsBitwise)
{
    // The Ack2 partials feed the canonical held-budget fold; any
    // rounding in transit would split the survivors' re-federation
    // bits.
    Frame in;
    in.type = FrameType::EpochAck;
    in.epoch_ack.shard_id = 2;
    in.epoch_ack.epoch = 5;
    in.epoch_ack.phase = EpochPhase::Rollback;
    in.epoch_ack.last_completed = 41;
    in.epoch_ack.sum_p = {513.0, std::nextafter(170.0, 0.0)};
    in.epoch_ack.sum_e = {-1e-12, -0.0};
    const Frame out = roundTrip(in);
    ASSERT_EQ(out.type, FrameType::EpochAck);
    EXPECT_EQ(out.epoch_ack.shard_id, 2u);
    EXPECT_EQ(out.epoch_ack.epoch, 5u);
    EXPECT_EQ(out.epoch_ack.phase, EpochPhase::Rollback);
    EXPECT_EQ(out.epoch_ack.last_completed, 41u);
    ASSERT_EQ(out.epoch_ack.sum_p.size(), 2u);
    ASSERT_EQ(out.epoch_ack.sum_e.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(sameBits(out.epoch_ack.sum_p[i],
                             in.epoch_ack.sum_p[i]));
        EXPECT_TRUE(sameBits(out.epoch_ack.sum_e[i],
                             in.epoch_ack.sum_e[i]));
    }
}

TEST(WireCodecTest, HeartbeatAndFaultStatsRoundTrip)
{
    {
        Frame in;
        in.type = FrameType::Heartbeat;
        in.heartbeat.shard_id = 7;
        in.heartbeat.epoch = 2;
        in.heartbeat.round = 0xabcdefULL;
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::Heartbeat);
        EXPECT_EQ(out.heartbeat.shard_id, 7u);
        EXPECT_EQ(out.heartbeat.epoch, 2u);
        EXPECT_EQ(out.heartbeat.round, 0xabcdefULL);
    }
    {
        Frame in;
        in.type = FrameType::Result;
        in.result.shard_id = 1;
        in.result.epoch = 4;
        in.result.stale_epoch_frames = 11;
        in.result.gaveup_frames = 22;
        in.result.suspect_events = 33;
        in.result.peer_suspected = 0b101;
        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::Result);
        EXPECT_EQ(out.result.epoch, 4u);
        EXPECT_EQ(out.result.stale_epoch_frames, 11u);
        EXPECT_EQ(out.result.gaveup_frames, 22u);
        EXPECT_EQ(out.result.suspect_events, 33u);
        EXPECT_EQ(out.result.peer_suspected, 0b101u);
    }
}

TEST(WireCodecTest, MinFrameSizeAdmitsTheSmallestRealBatch)
{
    // SocketTransport validates datagram_budget >= kMinFrameSize
    // at construction; the bound must cover a continuation batch
    // carrying one record of ANY value at ANY position, or the
    // packer could emit an unsendable frame.
    Frame f;
    f.type = FrameType::CutBatch;
    f.cut_batch.seq = 1;
    f.cut_batch.changed = {{0xffffffffu, ~0ULL}};
    std::vector<std::uint8_t> buf;
    encodeFrame(f, buf);
    EXPECT_EQ(buf.size(), kMinFrameSize);

    f.cut_batch.changed = {{0u, 0ULL}};
    buf.clear();
    encodeFrame(f, buf);
    EXPECT_LT(buf.size(), kMinFrameSize);
}

TEST(WireCodecTest, CutBatchV4RoundTripsEveryHotMode)
{
    // The v4 body gap-codes record indices and hot words and XOR-
    // codes value bits; decode must hand back ABSOLUTE indices and
    // the exact 64-bit patterns for every hot-bitmap encoding.
    const std::uint8_t modes[] = {kHotAll, kHotClear, kHotSparse};
    for (const std::uint8_t mode : modes) {
        Frame in;
        in.type = FrameType::CutBatch;
        in.cut_batch.sender = 1;
        in.cut_batch.epoch = 9;
        in.cut_batch.round = 0xfedcba9876543210ULL;
        in.cut_batch.seq = 0;
        in.cut_batch.total_changed = 0x123456u;
        in.cut_batch.hot_mode = mode;
        if (mode == kHotSparse)
            in.cut_batch.hot_words = {
                {0u, 0x1ULL},
                {3u, 0xdeadbeefcafef00dULL},
                {70000u, ~0ULL},
            };
        in.cut_batch.reports = {
            DpReport{/*round=*/41, /*shard_mask=*/0b1011,
                     /*max_dp=*/0.001953125},
        };
        // Strictly ascending positions, XOR deltas spanning the
        // 1-byte..10-byte varint range.
        in.cut_batch.changed = {
            {0u, 0x7fULL},
            {1u, 0x80ULL},
            {5u, 0x0000000100000000ULL},
            {1000000u, 0xffffffffffffffffULL},
        };

        const Frame out = roundTrip(in);
        ASSERT_EQ(out.type, FrameType::CutBatch);
        EXPECT_EQ(out.version, kWireVersion);
        const auto &b = out.cut_batch;
        EXPECT_EQ(b.sender, 1u);
        EXPECT_EQ(b.epoch, 9u);
        EXPECT_EQ(b.round, in.cut_batch.round);
        EXPECT_EQ(b.seq, 0u);
        EXPECT_EQ(b.total_changed, 0x123456u);
        EXPECT_EQ(b.hot_mode, mode);
        EXPECT_EQ(b.hot_words, in.cut_batch.hot_words);
        EXPECT_EQ(b.changed, in.cut_batch.changed);
        ASSERT_EQ(b.reports.size(), 1u);
        EXPECT_EQ(b.reports[0].round, 41u);
        EXPECT_TRUE(sameBits(b.reports[0].max_dp, 0.001953125));
    }

    // seq > 0: no hot bitmap, no total_changed on the wire.
    Frame cont;
    cont.type = FrameType::CutBatch;
    cont.cut_batch.sender = 2;
    cont.cut_batch.round = 7;
    cont.cut_batch.seq = 3;
    cont.cut_batch.changed = {{4u, 0x55ULL}, {8u, 0xaaULL}};
    const Frame cout = roundTrip(cont);
    EXPECT_EQ(cout.cut_batch.seq, 3u);
    EXPECT_EQ(cout.cut_batch.hot_mode, kHotNone);
    EXPECT_EQ(cout.cut_batch.total_changed, 0u);
    EXPECT_EQ(cout.cut_batch.changed, cont.cut_batch.changed);
}

TEST(WireCodecTest, CutBatchV4QuiescedFrameIsHeaderSized)
{
    // The steady-state claim: a fully-quiesced round from one
    // sender is a single seq-0 frame with zero records and a
    // one-byte hot encoding -- kCutBatchV4Fixed plus two zero
    // varints (n_changed, total_changed).
    Frame f;
    f.type = FrameType::CutBatch;
    f.cut_batch.sender = 0;
    f.cut_batch.round = 1000;
    f.cut_batch.seq = 0;
    f.cut_batch.hot_mode = kHotClear;
    std::vector<std::uint8_t> buf;
    encodeFrame(f, buf);
    EXPECT_EQ(buf.size(), kCutBatchV4Fixed + 2);

    const Frame out = roundTrip(f);
    EXPECT_EQ(out.cut_batch.hot_mode, kHotClear);
    EXPECT_TRUE(out.cut_batch.changed.empty());
    EXPECT_EQ(out.cut_batch.total_changed, 0u);
}

TEST(WireCodecTest, CutBatchV4TruncationAsksForMore)
{
    Frame in;
    in.type = FrameType::CutBatch;
    in.cut_batch.seq = 0;
    in.cut_batch.total_changed = 300;
    in.cut_batch.hot_mode = kHotSparse;
    in.cut_batch.hot_words = {{2u, 0xf0f0ULL}, {9u, 0x1ULL}};
    in.cut_batch.reports.resize(2);
    in.cut_batch.changed = {{1u, 0x100ULL}, {200u, 0x7fULL}};
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);

    Frame out;
    std::size_t consumed = 0;
    for (std::size_t len = 0; len < buf.size(); ++len) {
        EXPECT_EQ(decodeFrame(buf.data(), len, out, consumed),
                  DecodeStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(consumed, 0u);
    }
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Ok);
}

TEST(WireCodecTest, CutBatchV4MalformedIsBad)
{
    // Offsets shared by every v4 CutBatch: n_reports at fixed +20,
    // hot_mode at fixed +21.
    const std::size_t n_reports_off = kWireHeaderSize + 20;
    const std::size_t hot_mode_off = kWireHeaderSize + 21;

    Frame out;
    std::size_t consumed = 0;

    // A hot bitmap on a continuation frame (seq > 0): the wake
    // channel rides seq 0 only, anything else is a corrupt or
    // hostile frame.
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 2;
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf[hot_mode_off] = kHotAll;
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }

    // hot_mode above the defined range.
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 0;
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf[hot_mode_off] = kHotClear + 1;
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }

    // Declared counts that cannot fit the payload.
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 0;
        f.cut_batch.reports.resize(1);
        f.cut_batch.changed = {{3u, 9ULL}};
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf[n_reports_off] = 200; // 200 * 24 bytes > payload
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }

    // Payload bytes left over after the declared records: Bad,
    // not silently ignored (r.done() must hold).
    {
        Frame f;
        f.type = FrameType::CutBatch;
        f.cut_batch.seq = 0;
        std::vector<std::uint8_t> buf;
        encodeFrame(f, buf);
        buf.push_back(0x00);
        const std::uint32_t plen = static_cast<std::uint32_t>(
            buf.size() - kWireHeaderSize);
        std::memcpy(buf.data() + 8, &plen, sizeof(plen));
        EXPECT_EQ(
            decodeFrame(buf.data(), buf.size(), out, consumed),
            DecodeStatus::Bad);
    }
}

TEST(WireCodecTest, FramesAboveCurrentVersionAreBad)
{
    // Negotiation keeps agreed traffic at min(mine, theirs); a
    // frame stamped from the future means the peer skipped it, and
    // this build cannot know the newer body layout.
    Frame in;
    in.type = FrameType::CutBatch;
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    const std::uint16_t above = kWireVersion + 1;
    buf[4] = static_cast<std::uint8_t>(above & 0xff);
    buf[5] = static_cast<std::uint8_t>(above >> 8);
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, ResultSparsityCountersRideV4Only)
{
    Frame in;
    in.type = FrameType::Result;
    in.result.shard_id = 1;
    in.result.suppressed_frames = 111;
    in.result.delta_frames = 222;
    in.result.wake_messages = 333;
    in.result.rcvbuf_bytes = 425984;
    in.result.sndbuf_bytes = 212992;

    // The counters round-trip.
    const Frame out = roundTrip(in);
    EXPECT_EQ(out.result.suppressed_frames, 111u);
    EXPECT_EQ(out.result.delta_frames, 222u);
    EXPECT_EQ(out.result.wake_messages, 333u);
    EXPECT_EQ(out.result.rcvbuf_bytes, 425984u);
    EXPECT_EQ(out.result.sndbuf_bytes, 212992u);

    // The v3 Result layout (no counters) is gone: a frame stamped
    // v3 is refused rather than misread as the v4 layout.
    Frame legacy = in;
    legacy.version = 3;
    std::vector<std::uint8_t> buf;
    encodeFrame(legacy, buf);
    Frame lout;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), lout, consumed),
              DecodeStatus::Bad);
    EXPECT_EQ(lout.version, 3u);
}

TEST(WireCodecTest, TruncatedCutBatchAsksForMore)
{
    Frame in;
    in.type = FrameType::CutBatch;
    in.cut_batch.reports.resize(3);
    in.cut_batch.changed = {{1u, 2ull}, {3u, 4ull}};
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);

    Frame out;
    std::size_t consumed = 0;
    for (std::size_t len = 0; len < buf.size(); ++len) {
        EXPECT_EQ(decodeFrame(buf.data(), len, out, consumed),
                  DecodeStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(consumed, 0u);
    }

    // Internally inconsistent counts must be Bad, not a crash: a
    // payload_len too small for the declared record counts.
    // Fixed part of a CutBatch: sender u32 | epoch u32 |
    // round u64 | seq u32, then n_reports.
    std::vector<std::uint8_t> bad = buf;
    bad[kWireHeaderSize + 4 + 4 + 8 + 4] = 9; // n_reports: 3 -> 9
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, TruncatedFramesAskForMore)
{
    // Every proper prefix of every frame type must report NeedMore,
    // never Ok or Bad: a TCP reassembly loop depends on it.
    for (const auto &[name, in] : sampleFrames()) {
        std::vector<std::uint8_t> buf;
        encodeFrame(in, buf);
        Frame out;
        std::size_t consumed = 0;
        for (std::size_t len = 0; len < buf.size(); ++len) {
            EXPECT_EQ(decodeFrame(buf.data(), len, out, consumed),
                      DecodeStatus::NeedMore)
                << name << " prefix length " << len;
            EXPECT_EQ(consumed, 0u);
        }
        EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
                  DecodeStatus::Ok)
            << name;
    }
}

TEST(WireCodecTest, EveryByteFlipDecodesOkOrBad)
{
    // A corrupted byte anywhere in any frame must decode to Ok or
    // Bad -- never crash, over-read or over-allocate (the ASan and
    // UBSan ctest runs execute this).  The one legitimate third
    // answer: a flip that GROWS payload_len past the buffer is a
    // valid prefix of a longer frame, so NeedMore.
    const std::uint8_t masks[] = {0x01, 0x10, 0x80, 0xff};
    for (const auto &[name, in] : sampleFrames()) {
        std::vector<std::uint8_t> buf;
        encodeFrame(in, buf);
        for (std::size_t i = 0; i < buf.size(); ++i) {
            for (const std::uint8_t mask : masks) {
                std::vector<std::uint8_t> bad = buf;
                bad[i] ^= mask;
                Frame out;
                std::size_t consumed = 0;
                const DecodeStatus st = decodeFrame(
                    bad.data(), bad.size(), out, consumed);
                if (st == DecodeStatus::Ok) {
                    EXPECT_EQ(consumed, bad.size())
                        << name << " byte " << i;
                    continue;
                }
                EXPECT_EQ(consumed, 0u) << name << " byte " << i;
                if (st == DecodeStatus::NeedMore) {
                    std::uint32_t plen = 0;
                    std::memcpy(&plen, bad.data() + 8, sizeof(plen));
                    EXPECT_TRUE(i >= 8 && i < kWireHeaderSize &&
                                kWireHeaderSize + plen > bad.size())
                        << name << " byte " << i << " mask "
                        << int{mask};
                }
            }
        }
    }
}

TEST(WireCodecTest, GarbageIsRejectedNotBuffered)
{
    Frame out;
    std::size_t consumed = 0;

    // Wrong magic: Bad immediately, even on a short buffer (the
    // receiver must not wait forever for "more" of a bad frame).
    std::uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef};
    EXPECT_EQ(decodeFrame(junk, 4, out, consumed),
              DecodeStatus::Bad);
    EXPECT_EQ(decodeFrame(junk, sizeof(junk), out, consumed),
              DecodeStatus::Bad);

    // Valid header, unknown frame type.
    Frame in;
    in.type = FrameType::RoundGo;
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    buf[6] = 0x7f; // type -> 0x7f7f-ish garbage
    buf[7] = 0x7f;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);

    // The retired tags (3: per-pair transfer, 4: per-round barrier
    // report) stay reserved and decode Bad.
    for (const std::uint8_t tag : {3, 4}) {
        buf.clear();
        encodeFrame(in, buf);
        buf[6] = tag;
        buf[7] = 0;
        EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
                  DecodeStatus::Bad)
            << "type tag " << int{tag};
    }

    // Valid header, payload length absurd.
    buf.clear();
    encodeFrame(in, buf);
    buf[8] = 0xff;
    buf[9] = 0xff;
    buf[10] = 0xff;
    buf[11] = 0xff;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);

    // Payload shorter than the body decoder needs.
    buf.clear();
    encodeFrame(in, buf);
    buf[8] = 1; // payload_len = 1, RoundGo needs 17
    buf.resize(kWireHeaderSize + 1);
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);

    // Trailing payload bytes the body decoder did not consume.
    buf.clear();
    encodeFrame(in, buf);
    buf.push_back(0x00);
    buf[8] = static_cast<std::uint8_t>(buf.size() - kWireHeaderSize);
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);
}

TEST(WireCodecTest, VersionNegotiation)
{
    std::uint16_t agreed = 0;
    EXPECT_EQ(kWireMinVersion, kWireVersion);

    // Same version: trivially agreed.
    EXPECT_TRUE(
        negotiateVersion(kWireVersion, kWireVersion, agreed));
    EXPECT_EQ(agreed, kWireVersion);

    // A newer peer: we talk at our version (min of the two).
    EXPECT_TRUE(negotiateVersion(kWireVersion, kWireVersion + 5,
                                 agreed));
    EXPECT_EQ(agreed, kWireVersion);

    // A v3 peer (dense bitmap CutBatch, counter-less Result) is
    // below the floor: refused in either direction.
    EXPECT_FALSE(negotiateVersion(kWireVersion, 3, agreed));
    EXPECT_FALSE(negotiateVersion(3, kWireVersion, agreed));

    // Its Hello is refused at decode time too, and the decoder
    // reports the version it saw so the broker can name it.
    Frame in;
    in.type = FrameType::Hello;
    in.version = 3;
    in.hello.version = 3;
    std::vector<std::uint8_t> buf;
    encodeFrame(in, buf);
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Bad);
    EXPECT_EQ(out.version, 3u);
    EXPECT_EQ(consumed, 0u);
}

TEST(WireCodecTest, BackToBackFramesDecodeInSequence)
{
    // Two frames appended to one buffer (the TCP case): decode
    // must consume exactly one frame at a time.
    Frame a, b;
    a.type = FrameType::Heartbeat;
    a.heartbeat.round = 7;
    b.type = FrameType::RoundGo;
    b.round_go.round = 7;
    std::vector<std::uint8_t> buf;
    encodeFrame(a, buf);
    const std::size_t first = buf.size();
    encodeFrame(b, buf);

    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(buf.data(), buf.size(), out, consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(consumed, first);
    EXPECT_EQ(out.type, FrameType::Heartbeat);
    ASSERT_EQ(decodeFrame(buf.data() + consumed,
                          buf.size() - consumed, out, consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(out.type, FrameType::RoundGo);
    EXPECT_EQ(consumed, buf.size() - first);
}

} // namespace
} // namespace net
} // namespace dpc
