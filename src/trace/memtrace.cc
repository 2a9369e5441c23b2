#include "trace/memtrace.hh"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "gpu/kernel.hh"
#include "gpu/simt_stack.hh"
#include "sim/logging.hh"
#include "sim/parse_util.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"

namespace gpummu {

namespace {

constexpr const char *kMagic = "gpummu-memtrace";
constexpr int kVersion = 1;

/** Append @p v in hex (no 0x prefix) to @p out. */
void
appendHex(std::string &out, std::uint64_t v)
{
    char buf[17];
    auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
    out.append(buf, res.ptr);
}

void
appendDec(std::string &out, std::uint64_t v)
{
    char buf[21];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

bool
parseHex(std::string_view s, std::uint64_t &out)
{
    std::uint64_t v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v, 16);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/** "key=value" accessor for meta/end records. */
bool
keyValue(std::string_view tok, std::string_view key,
         std::string_view &value)
{
    if (tok.size() <= key.size() + 1 || tok[key.size()] != '=')
        return false;
    if (tok.substr(0, key.size()) != key)
        return false;
    value = tok.substr(key.size() + 1);
    return true;
}

} // namespace

MemTraceWriter::MemTraceWriter(const std::string &path) : path_(path)
{
}

void
MemTraceWriter::fail(const std::string &why)
{
    if (!ok_)
        return;
    ok_ = false;
    error_ = why;
}

bool
MemTraceWriter::beginRun(const MemTraceMeta &meta,
                         const std::vector<MemTraceRegion> &regions,
                         const KernelProgram &program)
{
    GPUMMU_ASSERT(!begun_, "MemTraceWriter armed on a second run");
    begun_ = true;
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) {
        fail("cannot open " + path_ + " for writing");
        return false;
    }
    out_ << kMagic << " " << kVersion << "\n";
    out_ << "meta bench=" << meta.bench << " config=" << config_
         << " cores=" << meta.numCores << " seed=" << meta.seed
         << " scale=" << jsonNum(meta.scale)
         << " tpb=" << meta.threadsPerBlock
         << " blocks=" << meta.numBlocks
         << " large=" << (meta.largePages ? 1 : 0) << "\n";
    for (const MemTraceRegion &r : regions) {
        GPUMMU_ASSERT(r.name.find_first_of(" \t\n") ==
                          std::string::npos,
                      "region names must not contain whitespace");
        out_ << "region " << r.name << " " << r.bytes << "\n";
    }
    out_ << "prog " << program.numBlocks() << " "
         << program.numAddrGens() << " " << program.numCondGens()
         << "\n";
    for (const BasicBlock &bb : program.blocks()) {
        for (const Instruction &in : bb.instrs) {
            out_ << "i " << bb.id << " ";
            switch (in.op) {
              case Opcode::Alu:
                out_ << "alu";
                break;
              case Opcode::Load:
                out_ << "ld " << in.addrGen;
                break;
              case Opcode::Store:
                out_ << "st " << in.addrGen;
                break;
              case Opcode::Branch:
                out_ << "br " << in.condGen << " " << in.takenBlock
                     << " " << in.fallBlock << " " << in.reconvBlock;
                break;
              case Opcode::Exit:
                out_ << "exit";
                break;
            }
            out_ << "\n";
        }
    }
    if (!out_) {
        fail("write error on " + path_);
        return false;
    }
    return true;
}

void
MemTraceWriter::recordAccess(Cycle now, int core, unsigned block,
                             int warp, bool store, std::uint64_t mask,
                             const std::vector<VirtAddr> &addrs)
{
    if (!ok_)
        return;
    GPUMMU_ASSERT(begun_ && !finished_);
    GPUMMU_ASSERT(now >= lastCycle_,
                  "access records must be cycle-ordered");
    lastCycle_ = now;
    // One preformatted line per record keeps the hot path to a
    // single streambuf write.
    std::string line = "A ";
    appendDec(line, now);
    line += ' ';
    appendDec(line, static_cast<std::uint64_t>(core));
    line += ' ';
    appendDec(line, block);
    line += ' ';
    appendDec(line, static_cast<std::uint64_t>(warp));
    line += store ? " S " : " L ";
    appendHex(line, mask);
    for (VirtAddr a : addrs) {
        line += ' ';
        appendHex(line, a);
    }
    line += '\n';
    out_ << line;
    ++accesses_;
    if (!out_)
        fail("write error on " + path_);
}

void
MemTraceWriter::recordBranch(unsigned block, int warp, int cond_gen,
                             std::uint64_t mask, std::uint64_t taken)
{
    if (!ok_)
        return;
    GPUMMU_ASSERT(begun_ && !finished_);
    std::string line = "B ";
    appendDec(line, block);
    line += ' ';
    appendDec(line, static_cast<std::uint64_t>(warp));
    line += ' ';
    appendDec(line, static_cast<std::uint64_t>(cond_gen));
    line += ' ';
    appendHex(line, mask);
    line += ' ';
    appendHex(line, taken);
    line += '\n';
    out_ << line;
    ++branches_;
    if (!out_)
        fail("write error on " + path_);
}

bool
MemTraceWriter::finish(Cycle cycles)
{
    if (finished_)
        return ok_;
    finished_ = true;
    if (!begun_) {
        fail("finish() without beginRun(): nothing was captured");
        return false;
    }
    if (!ok_)
        return false;
    out_ << "end accesses=" << accesses_ << " branches=" << branches_
         << " cycles=" << cycles << "\n";
    out_.close();
    if (!out_)
        fail("write error on " + path_);
    return ok_;
}

namespace {

/** Loader state shared by the per-record parsers. */
struct LoadCtx
{
    MemTraceData *out;
    std::string *err;
    std::uint64_t lineNo = 0;
    bool sawMeta = false;
    bool sawProg = false;
    bool sawEnd = false;
    Cycle lastCycle = 0;
    /** Where replay will map the regions read so far. */
    std::vector<VmRegion> layout{};

    bool
    fail(const std::string &why)
    {
        *err = "memtrace line " + std::to_string(lineNo) + ": " + why;
        return false;
    }
};

bool
parseMeta(LoadCtx &ctx, const std::vector<std::string> &tok)
{
    if (ctx.sawMeta)
        return ctx.fail("duplicate meta record");
    MemTraceMeta &m = ctx.out->meta;
    bool have_bench = false, have_tpb = false, have_blocks = false;
    bool have_cores = false;
    for (std::size_t i = 1; i < tok.size(); ++i) {
        std::string_view v;
        if (keyValue(tok[i], "bench", v)) {
            m.bench = std::string(v);
            have_bench = true;
        } else if (keyValue(tok[i], "config", v)) {
            m.config = std::string(v);
        } else if (keyValue(tok[i], "cores", v)) {
            if (!parseNum(v, m.numCores) || m.numCores == 0)
                return ctx.fail("bad cores");
            have_cores = true;
        } else if (keyValue(tok[i], "seed", v)) {
            if (!parseNum(v, m.seed))
                return ctx.fail("bad seed");
        } else if (keyValue(tok[i], "scale", v)) {
            if (!parseDouble(v, m.scale))
                return ctx.fail("bad scale");
        } else if (keyValue(tok[i], "tpb", v)) {
            if (!parseNum(v, m.threadsPerBlock) ||
                m.threadsPerBlock == 0 ||
                m.threadsPerBlock % kWarpWidth != 0) {
                return ctx.fail("bad tpb (want a warp multiple)");
            }
            have_tpb = true;
        } else if (keyValue(tok[i], "blocks", v)) {
            if (!parseNum(v, m.numBlocks) || m.numBlocks == 0)
                return ctx.fail("bad blocks");
            have_blocks = true;
        } else if (keyValue(tok[i], "large", v)) {
            unsigned l = 0;
            if (!parseNum(v, l) || l > 1)
                return ctx.fail("bad large flag");
            m.largePages = l == 1;
        } else {
            return ctx.fail("unknown meta key: " +
                            std::string(tok[i]));
        }
    }
    if (!have_bench || !have_tpb || !have_blocks || !have_cores)
        return ctx.fail("meta record missing bench/cores/tpb/blocks");
    ctx.sawMeta = true;
    return true;
}

bool
parseInstr(LoadCtx &ctx, const std::vector<std::string> &tok)
{
    MemTraceData &d = *ctx.out;
    if (!ctx.sawProg)
        return ctx.fail("i record before prog");
    if (tok.size() < 3)
        return ctx.fail("short i record");
    unsigned block = 0;
    if (!parseNum<unsigned>(tok[1], block) ||
        block >= d.blocks.size()) {
        return ctx.fail("instruction block id out of range");
    }
    MemTraceInstr in;
    const std::string &kind = tok[2];
    auto gen_arg = [&](unsigned max, const char *what) {
        if (tok.size() != 4 || !parseNum(tok[3], in.gen) ||
            in.gen < 0 || in.gen >= static_cast<int>(max)) {
            return ctx.fail(std::string("bad ") + what +
                            " generator id");
        }
        return true;
    };
    if (kind == "alu") {
        in.kind = MemTraceInstr::Kind::Alu;
    } else if (kind == "ld") {
        in.kind = MemTraceInstr::Kind::Load;
        if (!gen_arg(d.numAddrGens, "load"))
            return false;
    } else if (kind == "st") {
        in.kind = MemTraceInstr::Kind::Store;
        if (!gen_arg(d.numAddrGens, "store"))
            return false;
    } else if (kind == "br") {
        in.kind = MemTraceInstr::Kind::Branch;
        if (tok.size() != 7)
            return ctx.fail("short br record");
        const int nblocks = static_cast<int>(d.blocks.size());
        if (!parseNum(tok[3], in.gen) || in.gen < -1 ||
            in.gen >= static_cast<int>(d.numCondGens)) {
            return ctx.fail("bad branch condition id");
        }
        if (!parseNum(tok[4], in.taken) ||
            !parseNum(tok[5], in.fall) ||
            !parseNum(tok[6], in.reconv) || in.taken < -1 ||
            in.taken >= nblocks || in.fall < -1 ||
            in.fall >= nblocks || in.reconv < -1 ||
            in.reconv >= nblocks) {
            return ctx.fail("branch target out of range");
        }
    } else if (kind == "exit") {
        in.kind = MemTraceInstr::Kind::Exit;
    } else {
        return ctx.fail("unknown opcode: " + kind);
    }
    d.blocks[block].push_back(in);
    return true;
}

bool
parseWarpId(LoadCtx &ctx, const std::string &block_tok,
            const std::string &warp_tok, unsigned &block, int &warp)
{
    const MemTraceMeta &m = ctx.out->meta;
    if (!parseNum(block_tok, block) || block >= m.numBlocks)
        return ctx.fail("block id out of range");
    const int warps = static_cast<int>(m.threadsPerBlock /
                                       kWarpWidth);
    if (!parseNum(warp_tok, warp) || warp < 0 || warp >= warps)
        return ctx.fail("warp id out of range");
    return true;
}

bool
parseAccess(LoadCtx &ctx, const std::vector<std::string> &tok)
{
    if (!ctx.sawMeta || !ctx.sawProg)
        return ctx.fail("A record before meta/prog");
    if (tok.size() < 7)
        return ctx.fail("short A record");
    MemTraceAccess a;
    if (!parseNum(tok[1], a.cycle))
        return ctx.fail("bad cycle");
    if (a.cycle < ctx.lastCycle) {
        return ctx.fail("out-of-order access cycle (" +
                        std::to_string(a.cycle) + " after " +
                        std::to_string(ctx.lastCycle) + ")");
    }
    ctx.lastCycle = a.cycle;
    if (!parseNum(tok[2], a.core) || a.core < 0)
        return ctx.fail("bad core id");
    unsigned block = 0;
    int warp = 0;
    if (!parseWarpId(ctx, tok[3], tok[4], block, warp))
        return false;
    a.block = block;
    a.warp = warp;
    if (tok[5] == "S")
        a.store = true;
    else if (tok[5] == "L")
        a.store = false;
    else
        return ctx.fail("bad access kind (want L or S)");
    if (!parseHex(tok[6], a.mask) || a.mask == 0)
        return ctx.fail("bad lane mask");
    if (kWarpWidth < 64 && (a.mask >> kWarpWidth) != 0)
        return ctx.fail("lane mask exceeds the warp width");
    const std::size_t lanes =
        static_cast<std::size_t>(popcount64(a.mask));
    if (tok.size() != 7 + lanes) {
        return ctx.fail("address count does not match the lane "
                        "mask");
    }
    // Replay maps the declared regions in order on a fresh address
    // space, so every recorded address must land inside one of them.
    const std::vector<MemTraceRegion> &regions = ctx.out->regions;
    if (ctx.layout.size() != regions.size()) {
        ctx.layout.clear();
        VirtAddr next = AddressSpace::alignBase(
            AddressSpace::kDefaultBase, ctx.out->meta.largePages);
        for (const MemTraceRegion &r : regions) {
            ctx.layout.push_back(AddressSpace::carve(
                next, r.bytes, ctx.out->meta.largePages));
        }
    }
    a.addrs.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
        VirtAddr addr = 0;
        if (!parseHex(tok[7 + i], addr))
            return ctx.fail("bad address");
        if (std::none_of(ctx.layout.begin(), ctx.layout.end(),
                         [addr](const VmRegion &r) {
                             return r.contains(addr);
                         })) {
            return ctx.fail("address " + tok[7 + i] +
                            " lies outside every declared region");
        }
        a.addrs.push_back(addr);
    }
    ctx.out->accesses.push_back(std::move(a));
    return true;
}

bool
parseBranch(LoadCtx &ctx, const std::vector<std::string> &tok)
{
    if (!ctx.sawMeta || !ctx.sawProg)
        return ctx.fail("B record before meta/prog");
    if (tok.size() != 6)
        return ctx.fail("short B record");
    MemTraceBranch b;
    unsigned block = 0;
    int warp = 0;
    if (!parseWarpId(ctx, tok[1], tok[2], block, warp))
        return false;
    b.block = block;
    b.warp = warp;
    if (!parseNum(tok[3], b.condGen) || b.condGen < 0 ||
        b.condGen >= static_cast<int>(ctx.out->numCondGens)) {
        return ctx.fail("bad branch condition id");
    }
    if (!parseHex(tok[4], b.mask) || b.mask == 0)
        return ctx.fail("bad lane mask");
    if (!parseHex(tok[5], b.taken))
        return ctx.fail("bad taken mask");
    if ((b.taken & ~b.mask) != 0)
        return ctx.fail("taken mask is not a subset of the lane "
                        "mask");
    ctx.out->branches.push_back(b);
    return true;
}

bool
parseEnd(LoadCtx &ctx, const std::vector<std::string> &tok)
{
    std::uint64_t accesses = 0, branches = 0;
    bool have_a = false, have_b = false, have_c = false;
    for (std::size_t i = 1; i < tok.size(); ++i) {
        std::string_view v;
        if (keyValue(tok[i], "accesses", v)) {
            have_a = parseNum(v, accesses);
        } else if (keyValue(tok[i], "branches", v)) {
            have_b = parseNum(v, branches);
        } else if (keyValue(tok[i], "cycles", v)) {
            have_c = parseNum(v, ctx.out->cycles);
        }
    }
    if (!have_a || !have_b || !have_c)
        return ctx.fail("malformed end record");
    if (accesses != ctx.out->accesses.size() ||
        branches != ctx.out->branches.size()) {
        return ctx.fail(
            "end counts do not match the records read (truncated "
            "or corrupted trace)");
    }
    ctx.sawEnd = true;
    return true;
}

} // namespace

bool
loadMemTrace(std::istream &in, MemTraceData &out, std::string &err)
{
    out = MemTraceData{};
    LoadCtx ctx{&out, &err};

    std::string line;
    if (!std::getline(in, line))
        return ctx.fail("empty input");
    ++ctx.lineNo;
    {
        std::istringstream hs(line);
        std::string magic;
        int version = -1;
        hs >> magic >> version;
        if (magic != kMagic)
            return ctx.fail("not a gpummu-memtrace file");
        if (version != kVersion) {
            return ctx.fail("unsupported memtrace version " +
                            std::to_string(version) +
                            " (supported: " +
                            std::to_string(kVersion) + ")");
        }
    }

    std::vector<std::string> tok;
    while (std::getline(in, line)) {
        ++ctx.lineNo;
        if (ctx.sawEnd && !line.empty())
            return ctx.fail("trailing data after end record");
        tok.clear();
        std::istringstream ls(line);
        std::string t;
        while (ls >> t)
            tok.push_back(t);
        if (tok.empty())
            continue;

        const std::string &kind = tok[0];
        if (kind == "meta") {
            if (!parseMeta(ctx, tok))
                return false;
        } else if (kind == "region") {
            if (tok.size() != 3)
                return ctx.fail("short region record");
            MemTraceRegion r;
            r.name = tok[1];
            if (!parseNum(tok[2], r.bytes) || r.bytes == 0)
                return ctx.fail("bad region size");
            out.regions.push_back(std::move(r));
        } else if (kind == "prog") {
            if (ctx.sawProg)
                return ctx.fail("duplicate prog record");
            if (!ctx.sawMeta)
                return ctx.fail("prog record before meta");
            unsigned nblocks = 0;
            if (tok.size() != 4 ||
                !parseNum(tok[1], nblocks) || nblocks == 0 ||
                !parseNum(tok[2], out.numAddrGens) ||
                !parseNum(tok[3], out.numCondGens)) {
                return ctx.fail("malformed prog record");
            }
            out.blocks.assign(nblocks, {});
            ctx.sawProg = true;
        } else if (kind == "i") {
            if (!parseInstr(ctx, tok))
                return false;
        } else if (kind == "A") {
            if (!parseAccess(ctx, tok))
                return false;
        } else if (kind == "B") {
            if (!parseBranch(ctx, tok))
                return false;
        } else if (kind == "end") {
            if (!ctx.sawMeta || !ctx.sawProg)
                return ctx.fail("end record before meta/prog");
            if (!parseEnd(ctx, tok))
                return false;
        } else {
            return ctx.fail("unknown record type: " + kind);
        }
    }
    if (!ctx.sawMeta)
        return ctx.fail("missing meta record");
    if (!ctx.sawProg)
        return ctx.fail("missing prog record");
    if (!ctx.sawEnd) {
        return ctx.fail(
            "truncated trace: no end record (capture was "
            "interrupted?)");
    }
    return true;
}

bool
loadMemTraceFile(const std::string &path, MemTraceData &out,
                 std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot open memtrace file: " + path;
        return false;
    }
    return loadMemTrace(in, out, err);
}

} // namespace gpummu
