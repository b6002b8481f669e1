// Filter and controller implementations of the PEDF H.264 decoder, plus the
// MIND architecture description they plug into.
#include <array>
#include <memory>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/h264/bitstream.hpp"

namespace dfdbg::h264 {

using pedf::FilterContext;
using pedf::Value;

const char* to_string(FaultPlan::Kind k) {
  switch (k) {
    case FaultPlan::Kind::kNone: return "none";
    case FaultPlan::Kind::kRateMismatch: return "rate-mismatch";
    case FaultPlan::Kind::kCorruptSplitter: return "corrupt-splitter";
    case FaultPlan::Kind::kDropConfig: return "drop-config";
    case FaultPlan::Kind::kSkipIpf: return "skip-ipf";
  }
  return "?";
}

std::uint16_t mbtype_code(MbMode mode) {
  return static_cast<std::uint16_t>(5 * (static_cast<int>(mode) + 1));
}

// ---------------------------------------------------------------------------
// The architecture description (paper §IV-A / Fig. 4)
// ---------------------------------------------------------------------------

const char* kH264Adl = R"adl(
// Token payload types (paper's C structs, declared with the @Type extension).
@Type struct MbHdr_t  { U32 Addr hex; U32 Mode; U32 Dx; U32 Dy; }
@Type struct Blk_t    { U32 Addr hex; U32 Plane; U32 BlkIdx; U32 Mode;
                        U32 Dx; U32 Dy; U32 N;
                        U32 C0; U32 C1; U32 C2; U32 C3; U32 C4; U32 C5;
                        U32 C6; U32 C7; U32 C8; U32 C9; U32 C10; U32 C11;
                        U32 C12; U32 C13; U32 C14; U32 C15; }
@Type struct CbCrMB_t { U32 Addr hex; U32 InterNotIntra; U32 Izz; }
@Type struct MbDone_t { U32 Addr hex; U32 Izz; }

@Filter
primitive Vld {
  data      stddefs.h:U32 mbs_parsed;
  source    vld.c;
  input  stddefs.h:U8 as bits_in;
  output MbHdr_t as mbhdr_out;
  output Blk_t as coeff_out;
}

@Filter
primitive Bh {
  source    bh.c;
  input  MbHdr_t as mbhdr_in;
  output stddefs.h:U32 as bh2red_out;
  output stddefs.h:U32 as bh2hwcfg_out;
}

@Filter
primitive Hwcfg {
  source    hwcfg.c;
  input  stddefs.h:U32 as bh_in;
  output stddefs.h:U16 as pipe_MbType_out;
  output stddefs.h:U32 as ipred_cfg_out;
}

@Module
composite Front {
  contains as controller { source front_ctrl.c; }
  input  stddefs.h:U8 as module_in;
  output Blk_t as coeff_out;
  output stddefs.h:U32 as red_out;
  output stddefs.h:U16 as mbtype_out;
  output stddefs.h:U32 as ipredcfg_out;
  contains Vld as vld;
  contains Bh as bh;
  contains Hwcfg as hwcfg;
  binds this.module_in to vld.bits_in;
  binds vld.mbhdr_out to bh.mbhdr_in;
  binds vld.coeff_out to this.coeff_out;
  binds bh.bh2red_out to this.red_out;
  binds bh.bh2hwcfg_out to hwcfg.bh_in;
  binds hwcfg.pipe_MbType_out to this.mbtype_out;
  binds hwcfg.ipred_cfg_out to this.ipredcfg_out;
}

@Filter
primitive Pipe {
  attribute stddefs.h:U32 last_mb_intra;
  attribute stddefs.h:U32 last_addr;
  source    pipe.c;
  input  Blk_t as coeff_in;
  input  stddefs.h:U16 as MbType_in;
  input  CbCrMB_t as Red2PipeCbMB_in;
  output Blk_t as Pipe_out;
  output Blk_t as pipe_mc_out;
  output stddefs.h:U32 as pipe_ipf_out;
}

@Filter
primitive Red {
  source    red.c;
  input  stddefs.h:U32 as bh_in;
  output CbCrMB_t as Red2PipeCbMB_out;
  output stddefs.h:U32 as red_mc_out;
}

@Filter
primitive Ipred {
  source    ipred.c;
  input  Blk_t as Pipe_in;
  input  stddefs.h:U32 as Hwcfg_in;
  output MbDone_t as Add2Dblock_ipf_out;
  output stddefs.h:U32 as Add2Dblock_MB_out;
}

@Filter
primitive Mc {
  source    mc.c;
  input  Blk_t as pipe_in;
  input  stddefs.h:U32 as red_in;
  output MbDone_t as mc_ipf_out;
}

@Filter
primitive Ipf {
  data      stddefs.h:U32 mbs_done;
  source    ipf.c;
  input  MbDone_t as Add2Dblock_ipred_in;
  input  stddefs.h:U32 as Add2Dblock_MB_in;
  input  MbDone_t as Add2Dblock_mc_in;
  input  stddefs.h:U32 as pipe_in;
  output stddefs.h:U32 as ipf_out;
}

@Module
composite Pred {
  contains as controller { source pred_ctrl.c; }
  input  Blk_t as coeff_in;
  input  stddefs.h:U32 as red_in;
  input  stddefs.h:U16 as mbtype_in;
  input  stddefs.h:U32 as ipredcfg_in;
  output stddefs.h:U32 as module_out;
  contains Pipe as pipe;
  contains Red as red;
  contains Ipred as ipred;
  contains Mc as mc;
  contains Ipf as ipf;
  binds this.coeff_in to pipe.coeff_in;
  binds this.mbtype_in to pipe.MbType_in;
  binds this.red_in to red.bh_in;
  binds this.ipredcfg_in to ipred.Hwcfg_in;
  binds red.Red2PipeCbMB_out to pipe.Red2PipeCbMB_in;
  binds red.red_mc_out to mc.red_in;
  binds pipe.Pipe_out to ipred.Pipe_in;
  binds pipe.pipe_mc_out to mc.pipe_in;
  binds pipe.pipe_ipf_out to ipf.pipe_in;
  binds ipred.Add2Dblock_ipf_out to ipf.Add2Dblock_ipred_in;
  binds ipred.Add2Dblock_MB_out to ipf.Add2Dblock_MB_in;
  binds mc.mc_ipf_out to ipf.Add2Dblock_mc_in;
  binds ipf.ipf_out to this.module_out;
}

@Module
composite H264Decoder {
  input  stddefs.h:U8 as bitstream_in;
  output stddefs.h:U32 as decoded_out;
  contains Front as front;
  contains Pred as pred;
  binds this.bitstream_in to front.module_in;
  binds front.coeff_out to pred.coeff_in;
  binds front.red_out to pred.red_in;
  binds front.mbtype_out to pred.mbtype_in;
  binds front.ipredcfg_out to pred.ipredcfg_in;
  binds pred.module_out to this.decoded_out;
}
)adl";

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

namespace {

std::uint64_t pack_i32(int v) { return static_cast<std::uint32_t>(v); }
int unpack_i32(std::uint64_t bits) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(bits));
}

constexpr std::uint32_t kMbAddrBase = 0x1000;
constexpr std::uint32_t kMbAddrStride = 0x40;

std::uint32_t mb_addr(int mb_index) {
  return kMbAddrBase + static_cast<std::uint32_t>(mb_index) * kMbAddrStride;
}
int mb_index_of(std::uint64_t addr) {
  return static_cast<int>((addr - kMbAddrBase) / kMbAddrStride);
}

/// Large-but-deterministic checksum for CbCrMB_t.Izz (Fibonacci hashing).
std::uint32_t red_izz(std::uint32_t summary) {
  return (summary * 2654435761u) & 0x0fffffffu;
}

const char* kCoefFieldNames[16] = {"C0", "C1", "C2",  "C3",  "C4",  "C5",  "C6",  "C7",
                                   "C8", "C9", "C10", "C11", "C12", "C13", "C14", "C15"};

// Token layouts, resolved once per filter at bind(): the struct type a port
// carries and the indices of the fields the filter reads or writes, so a
// token costs field_u64_at/set_field_at instead of a hashed name per field.

/// The struct type a port handle (FilterContext::In or Out) carries.
template <class Handle>
const pedf::StructType* struct_of(const Handle& h) {
  return h.port()->type().struct_type();
}

std::size_t field_of(const pedf::StructType* st, std::string_view field) {
  DFDBG_CHECK(st != nullptr);
  const int i = st->field_index(field);
  DFDBG_CHECK_MSG(i >= 0, st->name() + " has no field " + std::string(field));
  return static_cast<std::size_t>(i);
}

/// MbHdr_t.
struct MbHdrFields {
  const pedf::StructType* type = nullptr;
  std::size_t addr = 0, mode = 0, dx = 0, dy = 0;
  static MbHdrFields of(const pedf::StructType* st) {
    return {st, field_of(st, "Addr"), field_of(st, "Mode"), field_of(st, "Dx"),
            field_of(st, "Dy")};
  }
};

/// Blk_t.
struct BlkFields {
  const pedf::StructType* type = nullptr;
  std::size_t addr = 0, plane = 0, blk_idx = 0, mode = 0, dx = 0, dy = 0, n = 0;
  std::array<std::size_t, 16> coef{};
  static BlkFields of(const pedf::StructType* st) {
    BlkFields f{st,
                field_of(st, "Addr"),
                field_of(st, "Plane"),
                field_of(st, "BlkIdx"),
                field_of(st, "Mode"),
                field_of(st, "Dx"),
                field_of(st, "Dy"),
                field_of(st, "N")};
    for (std::size_t i = 0; i < f.coef.size(); ++i) f.coef[i] = field_of(st, kCoefFieldNames[i]);
    return f;
  }
};

/// CbCrMB_t.
struct CbCrFields {
  const pedf::StructType* type = nullptr;
  std::size_t addr = 0, inter = 0, izz = 0;
  static CbCrFields of(const pedf::StructType* st) {
    return {st, field_of(st, "Addr"), field_of(st, "InterNotIntra"), field_of(st, "Izz")};
  }
};

/// MbDone_t.
struct MbDoneFields {
  const pedf::StructType* type = nullptr;
  std::size_t addr = 0, izz = 0;
  static MbDoneFields of(const pedf::StructType* st) {
    return {st, field_of(st, "Addr"), field_of(st, "Izz")};
  }
};

/// Reads one Blk_t token into MbSyntax block storage; returns block index.
int read_blk(const Value& blk, const BlkFields& f, MbSyntax* mb, std::uint32_t* addr) {
  *addr = static_cast<std::uint32_t>(blk.field_u64_at(f.addr));
  mb->mode = static_cast<MbMode>(blk.field_u64_at(f.mode));
  mb->mv.dx = unpack_i32(blk.field_u64_at(f.dx));
  mb->mv.dy = unpack_i32(blk.field_u64_at(f.dy));
  int b = static_cast<int>(blk.field_u64_at(f.blk_idx));
  auto& q = mb->qcoef[static_cast<std::size_t>(b)];
  int n = static_cast<int>(blk.field_u64_at(f.n));
  for (std::size_t i = 0; i < f.coef.size(); ++i)
    q[i] = static_cast<int>(i) < n ? unpack_i32(blk.field_u64_at(f.coef[i])) : 0;
  return b;
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

/// vld: variable-length decoder. Parses the header lazily, then exactly one
/// macroblock per firing, emitting the MB header to bh and 24 Blk_t
/// coefficient tokens to pipe.
class VldFilter : public pedf::Filter {
 public:
  VldFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    set_source("vld.c", 100,
               {"// vld.c -- variable length decoder (one MB per WORK step)",
                "if (!pedf.data.header_done) parse_header();",
                "MbSyntax mb = parse_mb();",
                "pedf.io.mbhdr_out[n] = mb.header;",
                "for (b = 0; b < 24; b++)",
                "  pedf.io.coeff_out[n] = mb.block[b];"});
  }

  void bind(FilterContext& pedf) override {
    src_.bits = pedf.in("bits_in");
    mbhdr_out_ = pedf.out("mbhdr_out");
    coeff_out_ = pedf.out("coeff_out");
    mbs_parsed_ = &pedf.data("mbs_parsed");
    hdr_ = MbHdrFields::of(struct_of(mbhdr_out_));
    blk_ = BlkFields::of(struct_of(coeff_out_));
  }

  void work(FilterContext& pedf) override {
    StreamInfo& info = store_->info;
    pedf.line(101);
    if (!info.header_parsed) {
      StreamHeader h = parse_header(reader_);
      DFDBG_CHECK_MSG(h.valid, "vld: malformed stream header");
      info.params = h.params;
      info.header_parsed = true;
      store_->work = Frame(h.params.width, h.params.height);
    }
    if (info.parsed_mbs >= info.params.total_mbs()) return;
    if (info.parsed_mbs % info.params.mbs_per_frame() == 0)
      parsed_frame_intra_ = parse_frame_marker(reader_);

    pedf.line(102);
    MbSyntax mb = parse_mb(reader_);
    DFDBG_CHECK_MSG(!reader_.overrun(), "vld: bitstream truncated");
    int idx = info.parsed_mbs;
    pedf.compute(40);

    pedf.line(103);
    Value hdr = Value::make_struct(hdr_.type);
    hdr.set_field_at(hdr_.addr, mb_addr(idx));
    hdr.set_field_at(hdr_.mode, static_cast<std::uint64_t>(mb.mode));
    hdr.set_field_at(hdr_.dx, pack_i32(mb.mv.dx));
    hdr.set_field_at(hdr_.dy, pack_i32(mb.mv.dy));
    mbhdr_out_.put(hdr);

    pedf.line(104);
    for (int b = 0; b < CodecParams::kBlocksPerMb; ++b) {
      pedf.line(105);
      Value blk = Value::make_struct(blk_.type);
      blk.set_field_at(blk_.addr, mb_addr(idx));
      blk.set_field_at(blk_.plane, static_cast<std::uint64_t>(block_geom(0, 0, b).plane));
      blk.set_field_at(blk_.blk_idx, static_cast<std::uint64_t>(b));
      blk.set_field_at(blk_.mode, static_cast<std::uint64_t>(mb.mode));
      blk.set_field_at(blk_.dx, pack_i32(mb.mv.dx));
      blk.set_field_at(blk_.dy, pack_i32(mb.mv.dy));
      const auto& q = mb.qcoef[static_cast<std::size_t>(b)];
      int n = 16;
      while (n > 0 && q[static_cast<std::size_t>(n - 1)] == 0) n--;
      blk.set_field_at(blk_.n, static_cast<std::uint64_t>(n));
      for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
        blk.set_field_at(blk_.coef[i], pack_i32(q[i]));
      coeff_out_.put(blk);
    }
    info.parsed_mbs++;
    mbs_parsed_->set_scalar_u64(static_cast<std::uint64_t>(info.parsed_mbs));
  }

 private:
  /// The bit reader's byte supply: one bits_in token per byte.
  struct TokenSource : ByteSource {
    bool next(std::uint8_t* out) override {
      auto v = bits.get_opt();
      if (!v.has_value()) return false;
      *out = static_cast<std::uint8_t>(v->as_u64() & 0xff);
      return true;
    }
    FilterContext::In bits;
  };

  SharedStore* store_;
  TokenSource src_;
  StreamBitReader reader_{src_};
  bool parsed_frame_intra_ = true;
  FilterContext::Out mbhdr_out_;
  FilterContext::Out coeff_out_;
  Value* mbs_parsed_ = nullptr;
  MbHdrFields hdr_;
  BlkFields blk_;
};

/// bh: block-header processing. Summarizes each MB header for the reorder
/// (red) and hardware-config (hwcfg) stages.
class BhFilter : public pedf::Filter {
 public:
  BhFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    set_source("bh.c", 50,
               {"// bh.c -- block header analysis",
                "hdr = pedf.io.mbhdr_in[n];",
                "summary = (mb_index(hdr.Addr) << 8) | hdr.Mode;",
                "pedf.io.bh2red_out[n] = summary;",
                "pedf.io.bh2hwcfg_out[n] = summary;"});
  }

  void bind(FilterContext& pedf) override {
    mbhdr_in_ = pedf.in("mbhdr_in");
    red_out_ = pedf.out("bh2red_out");
    hwcfg_out_ = pedf.out("bh2hwcfg_out");
    hdr_ = MbHdrFields::of(struct_of(mbhdr_in_));
  }

  void work(FilterContext& pedf) override {
    pedf.line(51);
    Value hdr = mbhdr_in_.get();
    int idx = mb_index_of(hdr.field_u64_at(hdr_.addr));
    std::uint32_t mode = static_cast<std::uint32_t>(hdr.field_u64_at(hdr_.mode));
    pedf.compute(10);
    std::uint32_t summary = (static_cast<std::uint32_t>(idx) << 8) | mode;
    pedf.line(53);
    red_out_.put(Value::u32(summary));
    pedf.line(54);
    hwcfg_out_.put(Value::u32(summary));
  }

 private:
  SharedStore* store_;
  FilterContext::In mbhdr_in_;
  FilterContext::Out red_out_;
  FilterContext::Out hwcfg_out_;
  MbHdrFields hdr_;
};

/// hwcfg: hardware configuration. Emits the MbType code to pipe and, for
/// intra MBs, the predictor configuration (the quantization parameter) to
/// ipred. Fault kDropConfig silently drops one of the latter.
class HwcfgFilter : public pedf::Filter {
 public:
  HwcfgFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    set_source("hwcfg.c", 70,
               {"// hwcfg.c -- accelerator configuration",
                "s = pedf.io.bh_in[n];",
                "pedf.io.pipe_MbType_out[n] = mbtype_code(s & 0xff);",
                "if (is_intra(s))",
                "  pedf.io.ipred_cfg_out[n] = qp;"});
  }

  void bind(FilterContext& pedf) override {
    bh_in_ = pedf.in("bh_in");
    mbtype_out_ = pedf.out("pipe_MbType_out");
    ipred_cfg_out_ = pedf.out("ipred_cfg_out");
  }

  void work(FilterContext& pedf) override {
    pedf.line(71);
    std::uint32_t s = static_cast<std::uint32_t>(bh_in_.get().as_u64());
    auto mode = static_cast<MbMode>(s & 0xff);
    int idx = static_cast<int>(s >> 8);
    pedf.compute(5);
    pedf.line(72);
    mbtype_out_.put(Value::u16(mbtype_code(mode)));
    if (!is_inter_mode(mode)) {
      if (store_->fault.kind == FaultPlan::Kind::kDropConfig && store_->fault.triggers(idx))
        return;  // the seeded bug: config token silently dropped
      pedf.line(74);
      ipred_cfg_out_.put(Value::u32(static_cast<std::uint32_t>(store_->info.params.qp)));
    }
  }

 private:
  SharedStore* store_;
  FilterContext::In bh_in_;
  FilterContext::Out mbtype_out_;
  FilterContext::Out ipred_cfg_out_;
};

/// red: reorder/dispatch stage (a *splitter* in the paper's terms). Expands
/// bh's summary into the chroma-MB descriptor for pipe and, for inter MBs,
/// a work order for mc. Fault kCorruptSplitter flips the routing flag.
class RedFilter : public pedf::Filter {
 public:
  RedFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    set_source("red.c", 30,
               {"// red.c -- reorder / dispatch (splitter)",
                "s = pedf.io.bh_in[n];",
                "inter = (s & 0xff) == MODE_INTER;",
                "pedf.io.Red2PipeCbMB_out[n] = make_cbcr(s, inter);",
                "if (inter)",
                "  pedf.io.red_mc_out[n] = s;"});
  }

  void bind(FilterContext& pedf) override {
    bh_in_ = pedf.in("bh_in");
    cbcr_out_ = pedf.out("Red2PipeCbMB_out");
    mc_out_ = pedf.out("red_mc_out");
    cbcr_ = CbCrFields::of(struct_of(cbcr_out_));
  }

  void work(FilterContext& pedf) override {
    pedf.line(31);
    std::uint32_t s = static_cast<std::uint32_t>(bh_in_.get().as_u64());
    int idx = static_cast<int>(s >> 8);
    bool inter = is_inter_mode(static_cast<MbMode>(s & 0xff));
    if (store_->fault.kind == FaultPlan::Kind::kCorruptSplitter && store_->fault.triggers(idx))
      inter = !inter;  // the seeded bug: routing flag corrupted
    pedf.compute(8);
    pedf.line(33);
    Value cb = Value::make_struct(cbcr_.type);
    cb.set_field_at(cbcr_.addr, mb_addr(idx));
    cb.set_field_at(cbcr_.inter, inter ? 1 : 0);
    cb.set_field_at(cbcr_.izz, red_izz(s));
    cbcr_out_.put(cb);
    if (inter) {
      pedf.line(35);
      mc_out_.put(Value::u32(s));
    }
  }

 private:
  SharedStore* store_;
  FilterContext::In bh_in_;
  FilterContext::Out cbcr_out_;
  FilterContext::Out mc_out_;
  CbCrFields cbcr_;
};

/// pipe: per-MB dispatch pipeline. Consumes the MbType token, the chroma
/// descriptor and the 24 coefficient blocks, routes the blocks to the
/// intra (ipred) or inter (mc) engine based on the descriptor, and issues
/// the in-loop-filter control token. Fault kRateMismatch issues one control
/// token per *block* (24x the correct rate).
class PipeFilter : public pedf::Filter {
 public:
  PipeFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    set_source("pipe.c", 140,
               {"// pipe.c -- macroblock dispatch pipeline",
                "mbtype = pedf.io.MbType_in[n];",
                "cbcr = pedf.io.Red2PipeCbMB_in[n];",
                "inter = cbcr.InterNotIntra;",
                "for (b = 0; b < 24; b++) {",
                "  blk = pedf.io.coeff_in[n];",
                "  if (inter) pedf.io.pipe_mc_out[n] = blk;",
                "  else       pedf.io.Pipe_out[n] = blk;",
                "}",
                "pedf.io.pipe_ipf_out[n] = ctl(inter, cbcr.Addr);"});
  }

  void bind(FilterContext& pedf) override {
    mbtype_in_ = pedf.in("MbType_in");
    cbcr_in_ = pedf.in("Red2PipeCbMB_in");
    coeff_in_ = pedf.in("coeff_in");
    mc_out_ = pedf.out("pipe_mc_out");
    ipred_out_ = pedf.out("Pipe_out");
    ipf_out_ = pedf.out("pipe_ipf_out");
    last_mb_intra_ = &pedf.attr("last_mb_intra");
    last_addr_ = &pedf.attr("last_addr");
    cbcr_ = CbCrFields::of(struct_of(cbcr_in_));
  }

  void work(FilterContext& pedf) override {
    pedf.line(141);
    Value mbtype = mbtype_in_.get();
    (void)mbtype;
    pedf.line(142);
    Value cb = cbcr_in_.get();
    bool inter = cb.field_u64_at(cbcr_.inter) != 0;
    std::uint32_t addr = static_cast<std::uint32_t>(cb.field_u64_at(cbcr_.addr));
    int idx = mb_index_of(addr);
    last_mb_intra_->set_scalar_u64(inter ? 0 : 1);
    last_addr_->set_scalar_u64(addr);
    pedf.compute(15);
    bool rate_bug =
        store_->fault.kind == FaultPlan::Kind::kRateMismatch && store_->fault.triggers(idx);
    std::uint32_t ctl = (inter ? 0x80000000u : 0u) | addr;
    for (int b = 0; b < CodecParams::kBlocksPerMb; ++b) {
      pedf.line(145);
      Value blk = coeff_in_.get();
      if (inter)
        mc_out_.put(blk);
      else
        ipred_out_.put(blk);
      if (rate_bug) ipf_out_.put(Value::u32(ctl));  // seeded bug
    }
    if (!rate_bug) {
      pedf.line(149);
      ipf_out_.put(Value::u32(ctl));
    }
  }

 private:
  SharedStore* store_;
  FilterContext::In mbtype_in_;
  FilterContext::In cbcr_in_;
  FilterContext::In coeff_in_;
  FilterContext::Out mc_out_;
  FilterContext::Out ipred_out_;
  FilterContext::Out ipf_out_;
  Value* last_mb_intra_ = nullptr;
  Value* last_addr_ = nullptr;
  CbCrFields cbcr_;
};

/// ipred: intra prediction + reconstruction engine. One intra MB per firing.
class IpredFilter : public pedf::Filter {
 public:
  IpredFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    // Source numbering matches the paper's §VI-C listing (lines 220-221).
    set_source("ipred.c", 214,
               {"// ipred.c -- intra prediction engine",
                "qp = pedf.io.Hwcfg_in[n];",
                "for (b = 0; b < 24; b++)",
                "  mb.block[b] = pedf.io.Pipe_in[n];",
                "izz = reconstruct_mb(work_frame, mb, qp);",
                "",
                "// push add2dBlock to ipf",
                "pedf.io.Add2Dblock_ipf_out[...] = ...;",
                "pedf.io.Add2Dblock_MB_out[n] = izz;"});
  }

  void bind(FilterContext& pedf) override {
    cfg_in_ = pedf.in("Hwcfg_in");
    blk_in_ = pedf.in("Pipe_in");
    done_out_ = pedf.out("Add2Dblock_ipf_out");
    izz_out_ = pedf.out("Add2Dblock_MB_out");
    blk_ = BlkFields::of(struct_of(blk_in_));
    done_ = MbDoneFields::of(struct_of(done_out_));
  }

  void work(FilterContext& pedf) override {
    pedf.line(215);
    Value cfg = cfg_in_.get();
    int qp = static_cast<int>(cfg.as_u64());
    MbSyntax mb;
    std::uint32_t addr = 0;
    pedf.line(216);
    for (int b = 0; b < CodecParams::kBlocksPerMb; ++b) {
      pedf.line(217);
      Value blk = blk_in_.get();
      read_blk(blk, blk_, &mb, &addr);
    }
    const CodecParams& p = store_->info.params;
    int idx = mb_index_of(addr);
    int fidx = idx % p.mbs_per_frame();
    pedf.compute(60);
    pedf.line(218);
    std::uint32_t izz = reconstruct_mb(store_->work, nullptr, fidx % p.mbs_x(),
                                       fidx / p.mbs_x(), mb, qp);
    pedf.line(220);
    pedf.line(221);
    Value done = Value::make_struct(done_.type);
    done.set_field_at(done_.addr, addr);
    done.set_field_at(done_.izz, izz);
    done_out_.put(done);
    pedf.line(222);
    izz_out_.put(Value::u32(izz));
  }

 private:
  SharedStore* store_;
  FilterContext::In cfg_in_;
  FilterContext::In blk_in_;
  FilterContext::Out done_out_;
  FilterContext::Out izz_out_;
  BlkFields blk_;
  MbDoneFields done_;
};

/// mc: motion-compensation engine. One inter MB per firing; always applies
/// the inter predictor (so a misrouted intra MB reconstructs wrongly — the
/// observable symptom of the corrupt-splitter fault).
class McFilter : public pedf::Filter {
 public:
  McFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    set_source("mc.c", 180,
               {"// mc.c -- motion compensation engine",
                "order = pedf.io.red_in[n];",
                "for (b = 0; b < 24; b++)",
                "  mb.block[b] = pedf.io.pipe_in[n];",
                "izz = reconstruct_mb_inter(work_frame, ref_frame, mb);",
                "pedf.io.mc_ipf_out[n] = done(izz);"});
  }

  void bind(FilterContext& pedf) override {
    order_in_ = pedf.in("red_in");
    blk_in_ = pedf.in("pipe_in");
    done_out_ = pedf.out("mc_ipf_out");
    blk_ = BlkFields::of(struct_of(blk_in_));
    done_ = MbDoneFields::of(struct_of(done_out_));
  }

  void work(FilterContext& pedf) override {
    pedf.line(181);
    Value order = order_in_.get();
    (void)order;
    MbSyntax mb;
    std::uint32_t addr = 0;
    pedf.line(182);
    for (int b = 0; b < CodecParams::kBlocksPerMb; ++b) {
      pedf.line(183);
      Value blk = blk_in_.get();
      read_blk(blk, blk_, &mb, &addr);
    }
    const CodecParams& p = store_->info.params;
    int idx = mb_index_of(addr);
    int fidx = idx % p.mbs_per_frame();
    // Force the motion-compensated predictor regardless of the parsed mode:
    // mc IS the inter engine (P_Skip included; its mv is zero and its
    // residual blocks carry N=0). A frame with no reference predicts gray.
    mb.mode = MbMode::kInter;
    const Frame* ref = store_->ref();
    if (ref == nullptr) {
      if (gray_.width != p.width) gray_ = Frame(p.width, p.height);
      ref = &gray_;
    }
    pedf.compute(50);
    pedf.line(184);
    std::uint32_t izz =
        reconstruct_mb(store_->work, ref, fidx % p.mbs_x(), fidx / p.mbs_x(), mb, p.qp);
    pedf.line(185);
    Value done = Value::make_struct(done_.type);
    done.set_field_at(done_.addr, addr);
    done.set_field_at(done_.izz, izz);
    done_out_.put(done);
  }

 private:
  SharedStore* store_;
  Frame gray_;
  FilterContext::In order_in_;
  FilterContext::In blk_in_;
  FilterContext::Out done_out_;
  BlkFields blk_;
  MbDoneFields done_;
};

/// ipf: in-loop filter and write-back. Consumes one control token per MB,
/// collects the matching reconstruction-done token, publishes frames into
/// the decoded picture buffer and reports each finished MB downstream.
class IpfFilter : public pedf::Filter {
 public:
  IpfFilter(std::string name, SharedStore* store) : Filter(std::move(name)), store_(store) {
    set_source("ipf.c", 240,
               {"// ipf.c -- in-loop filter & write-back",
                "ctl = pedf.io.pipe_in[n];",
                "if (ctl & INTER) done = pedf.io.Add2Dblock_mc_in[n];",
                "else { done = pedf.io.Add2Dblock_ipred_in[n];",
                "       chk  = pedf.io.Add2Dblock_MB_in[n]; }",
                "write_back(done.Addr);",
                "if (frame_complete()) publish_frame();",
                "pedf.io.ipf_out[n] = done.Addr;"});
  }

  void bind(FilterContext& pedf) override {
    ctl_in_ = pedf.in("pipe_in");
    mc_in_ = pedf.in("Add2Dblock_mc_in");
    ipred_in_ = pedf.in("Add2Dblock_ipred_in");
    izz_in_ = pedf.in("Add2Dblock_MB_in");
    out_ = pedf.out("ipf_out");
    mbs_done_ = &pedf.data("mbs_done");
    done_ = MbDoneFields::of(struct_of(mc_in_));
    DFDBG_CHECK(struct_of(ipred_in_) == done_.type);
  }

  void work(FilterContext& pedf) override {
    pedf.line(241);
    std::uint32_t ctl = static_cast<std::uint32_t>(ctl_in_.get().as_u64());
    bool inter = (ctl & 0x80000000u) != 0;
    Value done;
    if (inter) {
      pedf.line(242);
      done = mc_in_.get();
    } else {
      pedf.line(243);
      done = ipred_in_.get();
      pedf.line(244);
      (void)izz_in_.get();  // per-MB checksum, consumed
    }
    pedf.compute(25);
    StreamInfo& info = store_->info;
    pedf.line(245);
    info.frame_mbs_done++;
    info.done_mbs++;
    mbs_done_->set_scalar_u64(static_cast<std::uint64_t>(info.done_mbs));
    if (info.frame_mbs_done >= info.params.mbs_per_frame()) {
      pedf.line(246);
      store_->decoded.push_back(info.params.deblock ? deblock_frame(store_->work)
                                                    : store_->work);
      store_->work = Frame(info.params.width, info.params.height);
      info.frame_mbs_done = 0;
      info.cur_frame++;
    }
    pedf.line(247);
    out_.put(Value::u32(static_cast<std::uint32_t>(done.field_u64_at(done_.addr))));
  }

 private:
  SharedStore* store_;
  FilterContext::In ctl_in_;
  FilterContext::In mc_in_;
  FilterContext::In ipred_in_;
  FilterContext::In izz_in_;
  FilterContext::Out out_;
  Value* mbs_done_ = nullptr;
  MbDoneFields done_;
};

// ---------------------------------------------------------------------------
// Controllers
// ---------------------------------------------------------------------------

/// front_controller: one parsed macroblock per step (vld -> bh -> hwcfg).
class FrontController : public pedf::Controller {
 public:
  FrontController(std::string name, SharedStore* store)
      : Controller(std::move(name)), store_(store) {}

  void control(pedf::ControllerContext& ctx) override {
    while (ctx.predicate("more_input")) {
      ctx.next_step();
      ctx.actor_fire("vld");
      ctx.wait_for_actor_sync();
      ctx.actor_fire("bh");
      ctx.wait_for_actor_sync();
      ctx.actor_fire("hwcfg");
      ctx.wait_for_actor_sync();
      ctx.compute(12);
    }
  }

 private:
  SharedStore* store_;
};

/// pred_controller: one decoded macroblock per step. Uses the predicated
/// scheduling of PEDF: the mb_is_intra predicate (evaluated on pipe's
/// attribute) selects which engine fires. Fault kSkipIpf models a
/// controller scheduling bug.
class PredController : public pedf::Controller {
 public:
  PredController(std::string name, SharedStore* store)
      : Controller(std::move(name)), store_(store) {}

  void control(pedf::ControllerContext& ctx) override {
    while (ctx.predicate("more_mbs")) {
      ctx.next_step();
      ctx.actor_fire("red");
      ctx.wait_for_actor_sync();
      ctx.actor_fire("pipe");
      ctx.wait_for_actor_sync();
      if (ctx.predicate("mb_is_intra"))
        ctx.actor_fire("ipred");
      else
        ctx.actor_fire("mc");
      ctx.wait_for_actor_sync();
      int idx = store_->info.done_mbs;
      bool skip = store_->fault.kind == FaultPlan::Kind::kSkipIpf && store_->fault.triggers(idx);
      if (!skip) {  // the seeded bug skips the in-loop-filter stage
        ctx.actor_fire("ipf");
        ctx.wait_for_actor_sync();
      }
      ctx.compute(10);
    }
  }

 private:
  SharedStore* store_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Behaviour registry
// ---------------------------------------------------------------------------

void register_h264_behaviors(mind::FilterRegistry& registry, SharedStore* store) {
  registry.register_filter("Vld", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new VldFilter(n, store));
  });
  registry.register_filter("Bh", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new BhFilter(n, store));
  });
  registry.register_filter("Hwcfg", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new HwcfgFilter(n, store));
  });
  registry.register_filter("Red", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new RedFilter(n, store));
  });
  registry.register_filter("Pipe", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new PipeFilter(n, store));
  });
  registry.register_filter("Ipred", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new IpredFilter(n, store));
  });
  registry.register_filter("Mc", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new McFilter(n, store));
  });
  registry.register_filter("Ipf", [store](const mind::AstPrimitive&, const std::string& n) {
    return std::unique_ptr<pedf::Filter>(new IpfFilter(n, store));
  });
  registry.register_controller("Front",
                                [store](const mind::AstComposite&, const std::string&) {
    return std::unique_ptr<pedf::Controller>(new FrontController("front_controller", store));
  });
  registry.register_controller("Pred", [store](const mind::AstComposite&, const std::string&) {
    return std::unique_ptr<pedf::Controller>(new PredController("pred_controller", store));
  });
}

}  // namespace dfdbg::h264
