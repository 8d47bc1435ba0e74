#include "src/vfs/vfs.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::vfs {

using trace::kEEXIST;
using trace::kEINVAL;
using trace::kEISDIR;
using trace::kELOOP;
using trace::kENODATA;
using trace::kENOENT;
using trace::kENOTDIR;
using trace::kENOTEMPTY;
using trace::kEBADF;
using trace::kEPERM;
using trace::kOpenAppend;
using trace::kOpenCreate;
using trace::kOpenDirectory;
using trace::kOpenExcl;
using trace::kOpenNoFollow;
using trace::kOpenRead;
using trace::kOpenTrunc;
using trace::kOpenWrite;

namespace {

constexpr uint8_t kTypeFile = 0;
constexpr uint8_t kTypeDir = 1;
constexpr uint8_t kTypeSymlink = 2;
constexpr uint8_t kTypeSpecial = 3;

constexpr uint32_t kBlockSize = storage::kBlockSize;
constexpr int kMaxSymlinkDepth = 8;
constexpr uint64_t kDirEntriesPerBlock = 64;

uint64_t BlocksForSize(uint64_t bytes) { return (bytes + kBlockSize - 1) / kBlockSize; }

}  // namespace

FsProfile MakeFsProfile(const std::string& name) {
  FsProfile p;
  p.name = name;
  if (name == "ext4") {
    return p;
  }
  if (name == "ext3") {
    p.meta_cpu = Us(4);
    p.journal_blocks_per_txn = 2;
    p.fsync_flushes_all_dirty = true;  // ordered-mode data flushing
    p.alloc_chunk_blocks = 256;        // no delayed allocation
    return p;
  }
  if (name == "jfs") {
    p.meta_cpu = Us(6);
    p.journal_blocks_per_txn = 1;
    p.alloc_chunk_blocks = 1024;
    return p;
  }
  if (name == "xfs") {
    p.meta_cpu = Us(2);
    p.journal_blocks_per_txn = 2;
    p.alloc_chunk_blocks = 4096;
    return p;
  }
  ARTC_CHECK_MSG(false, "unknown fs profile '%s'", name.c_str());
  return p;
}

PlatformProfile MakePlatformProfile(const std::string& name) {
  PlatformProfile p;
  p.name = name;
  if (name == "linux") {
    return p;
  }
  if (name == "osx") {
    p.dev_random_read = Us(3);  // non-blocking random source
    p.fsync_is_device_flush_only = true;
    return p;
  }
  ARTC_CHECK_MSG(false, "unknown platform profile '%s'", name.c_str());
  return p;
}

void TraceRecorder::Record(trace::TraceEvent ev) {
  ev.index = out_->events.size();
  out_->events.push_back(std::move(ev));
}

struct Vfs::Inode {
  uint64_t ino = 0;
  uint8_t type = kTypeFile;
  uint32_t mode = 0644;
  uint64_t size = 0;
  uint32_t nlink = 0;
  uint32_t open_count = 0;  // open file descriptions, not fds: dups share one
  std::vector<std::pair<uint64_t, uint32_t>> extents;  // (lba, nblocks), file order
  uint64_t allocated_blocks = 0;
  std::map<std::string, uint64_t> children;  // dirs: name -> ino
  std::string symlink_target;
  std::map<std::string, uint64_t> xattrs;    // name -> value size
  std::string special_kind;                  // "random"/"urandom"/"null"
  uint64_t inode_block_lba = 0;
};

struct Vfs::OpenFile {
  uint64_t ino = 0;
  int64_t offset = 0;
  uint32_t flags = 0;
  uint64_t next_seq_block = UINT64_MAX;  // read-ahead detection
};

struct Vfs::ResolveOutcome {
  int err = 0;               // 0 if the full path resolved
  Inode* node = nullptr;     // resolved node (when err == 0)
  Inode* parent = nullptr;   // parent dir of the final component, if it exists
  std::string final_name;    // final component name
};

Vfs::Vfs(sim::Simulation* simulation, storage::StorageStack* stack, FsProfile fs_profile,
         PlatformProfile platform)
    : sim_(simulation), stack_(stack), fs_(std::move(fs_profile)),
      platform_(std::move(platform)) {
  journal_start_ = 0;
  inode_region_start_ = journal_start_ + journal_blocks_;
  data_start_ = inode_region_start_ + inode_region_blocks_;
  alloc_cursor_ = data_start_;
  Inode* root = NewInode(kTypeDir);
  root->nlink = 2;
  root_ino_ = root->ino;
  fd_table_.resize(3);  // fds 0-2 reserved (stdio)
}

Vfs::~Vfs() = default;

Vfs::Inode* Vfs::GetInode(uint64_t ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : it->second.get();
}

const Vfs::Inode* Vfs::GetInode(uint64_t ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : it->second.get();
}

Vfs::Inode* Vfs::NewInode(uint8_t type) {
  auto node = std::make_unique<Inode>();
  node->ino = next_ino_++;
  node->type = type;
  // 16 inodes per metadata block, laid out in creation order (good locality
  // for files created together).
  node->inode_block_lba = inode_region_start_ + (node->ino / 16) % inode_region_blocks_;
  Inode* raw = node.get();
  inodes_[raw->ino] = std::move(node);
  return raw;
}

void Vfs::FreeInode(Inode* inode) {
  for (const auto& [lba, nblocks] : inode->extents) {
    stack_->Discard(lba, nblocks);
  }
  inodes_.erase(inode->ino);
}

void Vfs::UnrefInode(uint64_t ino) {
  Inode* inode = GetInode(ino);
  ARTC_CHECK(inode != nullptr);
  if (inode->nlink == 0 && inode->open_count == 0) {
    FreeInode(inode);
  }
}

void Vfs::EnsureExtents(Inode* inode, uint64_t up_to_block) {
  while (inode->allocated_blocks < up_to_block) {
    uint64_t need = up_to_block - inode->allocated_blocks;
    uint32_t take = static_cast<uint32_t>(std::min<uint64_t>(need, fs_.alloc_chunk_blocks));
    uint64_t lba = alloc_cursor_;
    alloc_cursor_ += take;
    ARTC_CHECK_MSG(alloc_cursor_ <= stack_->device().CapacityBlocks(),
                   "simulated device full");
    if (!inode->extents.empty() &&
        inode->extents.back().first + inode->extents.back().second == lba) {
      inode->extents.back().second += take;
    } else {
      inode->extents.push_back({lba, take});
    }
    inode->allocated_blocks += take;
  }
}

std::vector<std::pair<uint64_t, uint32_t>> Vfs::MapRange(const Inode* inode, uint64_t block,
                                                         uint64_t nblocks) const {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  uint64_t pos = 0;  // file block index at the start of the current extent
  for (const auto& [lba, len] : inode->extents) {
    uint64_t ext_end = pos + len;
    uint64_t want_end = block + nblocks;
    if (ext_end > block && pos < want_end) {
      uint64_t from = std::max(pos, block);
      uint64_t to = std::min(ext_end, want_end);
      out.push_back({lba + (from - pos), static_cast<uint32_t>(to - from)});
    }
    pos = ext_end;
    if (pos >= block + nblocks) {
      break;
    }
  }
  return out;
}

Vfs::Inode* Vfs::ReadInodeBlock(const Inode* inode) {
  const uint64_t ino = inode->ino;
  stack_->Read(inode->inode_block_lba, 1, /*sequential_hint=*/false);
  return GetInode(ino);
}

void Vfs::DirtyInodeBlock(const Inode* inode) {
  stack_->cache().InsertDirty(inode->inode_block_lba, 1);
}

Vfs::Inode* Vfs::ReadDirBlocks(Inode* dir) {
  const uint64_t ino = dir->ino;
  uint64_t blocks = std::max<uint64_t>(1, BlocksForSize(dir->size));
  EnsureExtents(dir, blocks);
  for (const auto& [lba, len] : MapRange(dir, 0, blocks)) {
    stack_->Read(lba, len, /*sequential_hint=*/false);
  }
  return GetInode(ino);
}

bool Vfs::StillNamed(uint64_t dir_ino, const std::string& name, uint64_t ino) const {
  const Inode* dir = GetInode(dir_ino);
  if (dir == nullptr) {
    return false;
  }
  auto it = dir->children.find(name);
  return it != dir->children.end() && it->second == ino;
}

void Vfs::TouchDirData(Inode* dir) {
  dir->size = (dir->children.size() / kDirEntriesPerBlock + 1) * kBlockSize;
  uint64_t blocks = BlocksForSize(dir->size);
  EnsureExtents(dir, blocks);
  uint64_t last = blocks - 1;
  for (const auto& [lba, len] : MapRange(dir, last, 1)) {
    stack_->cache().InsertDirty(lba, len);
  }
  DirtyInodeBlock(dir);
}

void Vfs::JournalAppend() {
  pending_journal_blocks_ += fs_.journal_blocks_per_txn;
}

void Vfs::DeviceBarrier() {
  // Device write-cache flush. Mechanical disks pay roughly a rotation; flash
  // pays a controller round-trip.
  bool is_ssd = stack_->config().device == storage::DeviceKind::kSsd;
  sim_->Sleep(is_ssd ? Us(60) : Ms(4));
}

void Vfs::JournalCommit() {
  if (pending_journal_blocks_ == 0) {
    return;
  }
  uint64_t blocks = std::min(pending_journal_blocks_, journal_blocks_ / 2);
  // The journal is written sequentially within its circular region.
  uint64_t lba = journal_start_ + journal_head_;
  if (journal_head_ + blocks > journal_blocks_) {
    journal_head_ = 0;
    lba = journal_start_;
  }
  journal_head_ = (journal_head_ + blocks) % journal_blocks_;
  stack_->WriteSync(lba, static_cast<uint32_t>(blocks));
  journal_committed_blocks_ += blocks;
  pending_journal_blocks_ = 0;
}

Vfs::ResolveOutcome Vfs::Resolve(const std::string& path, bool follow_last, bool timed) {
  int budget = kMaxSymlinkDepth;
  return ResolveWithBudget(path, follow_last, timed, &budget);
}

Vfs::ResolveOutcome Vfs::ResolveWithBudget(const std::string& path, bool follow_last,
                                           bool timed, int* symlink_budget) {
  ResolveOutcome out;
  std::string norm = NormalizePath(path);
  std::vector<std::string> parts;
  for (std::string_view p : SplitPath(norm)) {
    parts.emplace_back(p);
  }
  Inode* dir = GetInode(root_ino_);
  if (parts.empty()) {
    out.node = dir;
    out.parent = dir;
    out.final_name = "/";
    return out;
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    if (dir->type != kTypeDir) {
      out.err = kENOTDIR;
      return out;
    }
    if (timed) {
      const uint64_t dir_ino = dir->ino;
      sim_->Sleep(fs_.lookup_cpu);
      dir = GetInode(dir_ino);  // a concurrent rmdir may have freed it
      if (dir == nullptr) {
        out.err = kENOENT;
        return out;
      }
    }
    bool last = i + 1 == parts.size();
    auto it = dir->children.find(parts[i]);
    if (it == dir->children.end()) {
      out.err = kENOENT;
      if (last) {
        out.parent = dir;
        out.final_name = parts[i];
      }
      return out;
    }
    Inode* child = GetInode(it->second);
    ARTC_CHECK(child != nullptr);
    // Follow symlinks (always for intermediate components; for the final
    // component only when requested).
    while (child->type == kTypeSymlink && (!last || follow_last)) {
      if (--*symlink_budget < 0) {
        out.err = kELOOP;
        return out;
      }
      std::string target = child->symlink_target;
      if (!target.empty() && target[0] == '/') {
        // Absolute symlink: restart resolution with remaining components,
        // carrying the hop budget so loops terminate with ELOOP.
        std::string rest = target;
        for (size_t j = i + 1; j < parts.size(); ++j) {
          rest = JoinPath(rest, parts[j]);
        }
        return ResolveWithBudget(rest, follow_last, timed, symlink_budget);
      }
      // Relative symlink: resolve within the current directory.
      std::string rest = JoinPath("/", target);
      // Build absolute path of current dir is not tracked; relative links
      // are resolved against the parent dir by splicing components.
      std::vector<std::string> spliced;
      for (std::string_view p : SplitPath(target)) {
        spliced.emplace_back(p);
      }
      for (size_t j = i + 1; j < parts.size(); ++j) {
        spliced.push_back(parts[j]);
      }
      parts.erase(parts.begin() + static_cast<ptrdiff_t>(i), parts.end());
      parts.insert(parts.end(), spliced.begin(), spliced.end());
      // Re-enter loop at the same index, now naming the link target.
      if (i >= parts.size()) {
        out.err = kENOENT;
        return out;
      }
      auto it2 = dir->children.find(parts[i]);
      if (it2 == dir->children.end()) {
        out.err = kENOENT;
        out.parent = dir;
        out.final_name = parts[i];
        return out;
      }
      child = GetInode(it2->second);
      last = i + 1 == parts.size();
    }
    if (last) {
      out.node = child;
      out.parent = dir;
      out.final_name = parts[i];
      return out;
    }
    dir = child;
  }
  out.err = kENOENT;
  return out;
}

int32_t Vfs::AllocFd(std::shared_ptr<OpenFile> of) {
  for (size_t i = 3; i < fd_table_.size(); ++i) {
    if (fd_table_[i] == nullptr) {
      fd_table_[i] = std::move(of);
      return static_cast<int32_t>(i);
    }
  }
  fd_table_.push_back(std::move(of));
  return static_cast<int32_t>(fd_table_.size() - 1);
}

Vfs::OpenFile* Vfs::GetOpenFile(int32_t fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fd_table_.size()) {
    return nullptr;
  }
  return fd_table_[static_cast<size_t>(fd)].get();
}

template <typename Fn>
VfsResult Vfs::Traced(trace::Sys call, Fn&& body, trace::TraceEvent proto) {
  if (recorder_ == nullptr) {
    return body();
  }
  proto.call = call;
  proto.tid = sim_->CurrentThread();
  proto.enter = sim_->Now();
  VfsResult r = body();
  proto.ret_time = sim_->Now();
  proto.ret = r.TraceRet();
  recorder_->Record(std::move(proto));
  return r;
}

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

VfsResult Vfs::Open(const std::string& path, uint32_t flags, uint32_t mode) {
  trace::TraceEvent proto;
  proto.path = path;
  proto.flags = flags;
  proto.mode = mode;
  auto body = [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, !(flags & kOpenNoFollow), /*timed=*/true);
    Inode* node = r.node;
    bool created = false;
    while (r.err == kENOENT && (flags & kOpenCreate) && r.parent != nullptr) {
      Inode* parent = ReadDirBlocks(r.parent);
      if (parent == nullptr) {
        return {0, kENOENT};
      }
      if (parent->children.count(r.final_name) != 0) {
        // Another thread created the name while the read blocked: open what
        // is there now (O_EXCL then fails with EEXIST).
        r = Resolve(path, !(flags & kOpenNoFollow), /*timed=*/true);
        node = r.node;
        continue;
      }
      // Create the file.
      node = NewInode(kTypeFile);
      node->mode = mode;
      node->nlink = 1;
      parent->children[r.final_name] = node->ino;
      TouchDirData(parent);
      DirtyInodeBlock(node);
      JournalAppend();
      created = true;
      break;
    }
    if (!created) {
      if (r.err != 0) {
        return {0, r.err};
      }
      if ((flags & kOpenCreate) && (flags & kOpenExcl)) {
        return {0, kEEXIST};
      }
      if (node->type == kTypeDir && (flags & kOpenWrite)) {
        return {0, kEISDIR};
      }
      if ((flags & kOpenDirectory) && node->type != kTypeDir) {
        return {0, kENOTDIR};
      }
      if (node->type == kTypeSymlink) {
        return {0, kELOOP};  // O_NOFOLLOW hit a symlink
      }
      node = ReadInodeBlock(node);
      if (node == nullptr) {
        return {0, kENOENT};
      }
      if ((flags & kOpenTrunc) && node->type == kTypeFile && node->size > 0) {
        for (const auto& [lba, nblocks] : node->extents) {
          stack_->Discard(lba, nblocks);
        }
        node->size = 0;
        DirtyInodeBlock(node);
        JournalAppend();
      }
    }
    node->open_count++;
    auto of = std::make_shared<OpenFile>();
    of->ino = node->ino;
    of->flags = flags;
    of->offset = (flags & kOpenAppend) ? static_cast<int64_t>(node->size) : 0;
    int32_t fd = AllocFd(std::move(of));
    return {fd, 0};
  };
  VfsResult res = Traced(trace::Sys::kOpen, body, std::move(proto));
  return res;
}

VfsResult Vfs::Close(int32_t fd) {
  trace::TraceEvent proto;
  proto.fd = fd;
  return Traced(trace::Sys::kClose, [&]() -> VfsResult {
    sim_->Sleep(Us(1));
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    uint64_t ino = of->ino;
    bool last_ref = fd_table_[static_cast<size_t>(fd)].use_count() == 1;
    fd_table_[static_cast<size_t>(fd)] = nullptr;
    if (last_ref) {
      Inode* node = GetInode(ino);
      ARTC_CHECK(node != nullptr);
      node->open_count--;
      UnrefInode(ino);
    }
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Dup(int32_t fd) {
  trace::TraceEvent proto;
  proto.fd = fd;
  return Traced(trace::Sys::kDup, [&]() -> VfsResult {
    sim_->Sleep(Us(1));
    if (GetOpenFile(fd) == nullptr) {
      return {0, kEBADF};
    }
    // The new fd shares the open file description: open_count (one per
    // description) does not change.
    int32_t nfd = AllocFd(fd_table_[static_cast<size_t>(fd)]);
    return {nfd, 0};
  }, std::move(proto));
}

VfsResult Vfs::Dup2(int32_t fd, int32_t newfd) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.fd2 = newfd;
  return Traced(trace::Sys::kDup2, [&]() -> VfsResult {
    sim_->Sleep(Us(1));
    if (GetOpenFile(fd) == nullptr || newfd < 0) {
      return {0, kEBADF};
    }
    if (newfd == fd) {
      return {newfd, 0};
    }
    if (static_cast<size_t>(newfd) >= fd_table_.size()) {
      fd_table_.resize(static_cast<size_t>(newfd) + 1);
    }
    if (fd_table_[static_cast<size_t>(newfd)] != nullptr) {
      // Implicit close of newfd.
      std::shared_ptr<OpenFile> old = fd_table_[static_cast<size_t>(newfd)];
      bool last_ref = old.use_count() == 2;  // table + local
      fd_table_[static_cast<size_t>(newfd)] = nullptr;
      if (last_ref) {
        Inode* node = GetInode(old->ino);
        node->open_count--;
        UnrefInode(old->ino);
      }
    }
    fd_table_[static_cast<size_t>(newfd)] = fd_table_[static_cast<size_t>(fd)];
    return {newfd, 0};
  }, std::move(proto));
}

VfsResult Vfs::Mkdir(const std::string& path, uint32_t mode) {
  trace::TraceEvent proto;
  proto.path = path;
  proto.mode = mode;
  return Traced(trace::Sys::kMkdir, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/false, /*timed=*/true);
    if (r.err == 0) {
      return {0, kEEXIST};
    }
    if (r.err != kENOENT || r.parent == nullptr) {
      return {0, r.err};
    }
    // The directory read blocks; a concurrent rmdir may free the parent,
    // and a concurrent create may take the name.
    Inode* parent = ReadDirBlocks(r.parent);
    if (parent == nullptr) {
      return {0, kENOENT};
    }
    if (parent->children.count(r.final_name) != 0) {
      return {0, kEEXIST};
    }
    Inode* dir = NewInode(kTypeDir);
    dir->mode = mode;
    dir->nlink = 2;
    parent->children[r.final_name] = dir->ino;
    parent->nlink++;
    TouchDirData(parent);
    DirtyInodeBlock(dir);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Rmdir(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kRmdir, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/false, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    if (r.node->type != kTypeDir) {
      return {0, kENOTDIR};
    }
    if (!r.node->children.empty()) {
      return {0, kENOTEMPTY};
    }
    if (r.node->ino == root_ino_) {
      return {0, kEPERM};
    }
    const uint64_t ino = r.node->ino;
    Inode* parent = ReadDirBlocks(r.parent);
    if (parent == nullptr || !StillNamed(parent->ino, r.final_name, ino)) {
      return {0, kENOENT};  // removed or renamed away while the read blocked
    }
    Inode* node = GetInode(ino);
    if (!node->children.empty()) {
      return {0, kENOTEMPTY};
    }
    parent->children.erase(r.final_name);
    parent->nlink--;
    node->nlink = 0;
    TouchDirData(parent);
    JournalAppend();
    UnrefInode(ino);
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Unlink(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kUnlink, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/false, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    if (r.node->type == kTypeDir) {
      return {0, kEISDIR};
    }
    const uint64_t ino = r.node->ino;
    Inode* parent = ReadDirBlocks(r.parent);
    if (parent == nullptr || !StillNamed(parent->ino, r.final_name, ino)) {
      return {0, kENOENT};  // removed or renamed away while the read blocked
    }
    parent->children.erase(r.final_name);
    GetInode(ino)->nlink--;
    TouchDirData(parent);
    JournalAppend();
    UnrefInode(ino);
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Rename(const std::string& from, const std::string& to) {
  trace::TraceEvent proto;
  proto.path = from;
  proto.path2 = to;
  return Traced(trace::Sys::kRename, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu * 2);
    ResolveOutcome src = Resolve(from, /*follow_last=*/false, /*timed=*/true);
    if (src.err != 0) {
      return {0, src.err};
    }
    const uint64_t src_dir = src.parent->ino;
    const uint64_t src_ino = src.node->ino;
    ResolveOutcome dst = Resolve(to, /*follow_last=*/false, /*timed=*/true);
    if (dst.err != 0 && !(dst.err == kENOENT && dst.parent != nullptr)) {
      return {0, dst.err};
    }
    // Resolving `to` blocked; `from` may have been removed or rebound.
    if (!StillNamed(src_dir, src.final_name, src_ino)) {
      return {0, kENOENT};
    }
    src.parent = GetInode(src_dir);
    src.node = GetInode(src_ino);
    if (src.node->type == kTypeDir) {
      // A directory cannot be moved into its own subtree.
      for (Inode* d = dst.parent; d != nullptr;) {
        if (d == src.node) {
          return {0, kEINVAL};
        }
        // Walk upward is not tracked; conservatively check only one level.
        break;
      }
    }
    if (dst.node == src.node) {
      return {0, 0};
    }
    if (dst.node != nullptr) {
      if (int err = UnbindRenameTarget(dst.parent, dst.final_name, src.node); err != 0) {
        return {0, err};
      }
    }
    // Both directory reads block; re-check what was resolved before them.
    const uint64_t dst_dir = dst.parent->ino;
    if (ReadDirBlocks(src.parent) == nullptr) {
      return {0, kENOENT};
    }
    if (dst_dir != src_dir) {
      Inode* dst_parent = GetInode(dst_dir);
      if (dst_parent == nullptr || ReadDirBlocks(dst_parent) == nullptr) {
        return {0, kENOENT};
      }
    }
    if (!StillNamed(src_dir, src.final_name, src_ino)) {
      return {0, kENOENT};
    }
    Inode* src_parent = GetInode(src_dir);
    Inode* dst_parent = GetInode(dst_dir);
    // A concurrent create may have bound the target name while the reads
    // blocked; rename replaces it just as it would have before.
    auto target = dst_parent->children.find(dst.final_name);
    if (target != dst_parent->children.end() && target->second == src_ino) {
      return {0, 0};
    }
    if (int err = UnbindRenameTarget(dst_parent, dst.final_name, GetInode(src_ino)); err != 0) {
      return {0, err};
    }
    src_parent->children.erase(src.final_name);
    dst_parent->children[dst.final_name] = src_ino;
    if (GetInode(src_ino)->type == kTypeDir && src_dir != dst_dir) {
      src_parent->nlink--;
      dst_parent->nlink++;
    }
    TouchDirData(src_parent);
    if (dst_dir != src_dir) {
      TouchDirData(dst_parent);
    }
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

int Vfs::UnbindRenameTarget(Inode* dir, const std::string& name, const Inode* src) {
  auto it = dir->children.find(name);
  if (it == dir->children.end()) {
    return 0;
  }
  Inode* target = GetInode(it->second);
  if (target->type == kTypeDir) {
    if (src->type != kTypeDir) {
      return kEISDIR;
    }
    if (!target->children.empty()) {
      return kENOTEMPTY;
    }
  } else if (src->type == kTypeDir) {
    return kENOTDIR;
  }
  if (target->type == kTypeDir) {
    target->nlink -= 2;  // its own entry and its "."
    dir->nlink--;        // the victim's ".." linked `dir`
  } else {
    target->nlink--;
  }
  const uint64_t doomed = target->ino;
  dir->children.erase(it);
  UnrefInode(doomed);
  return 0;
}

VfsResult Vfs::Link(const std::string& existing, const std::string& link) {
  trace::TraceEvent proto;
  proto.path = existing;
  proto.path2 = link;
  return Traced(trace::Sys::kLink, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome src = Resolve(existing, /*follow_last=*/true, /*timed=*/true);
    if (src.err != 0) {
      return {0, src.err};
    }
    if (src.node->type == kTypeDir) {
      return {0, kEPERM};
    }
    const uint64_t src_ino = src.node->ino;
    ResolveOutcome dst = Resolve(link, /*follow_last=*/false, /*timed=*/true);
    if (dst.err == 0) {
      return {0, kEEXIST};
    }
    if (dst.err != kENOENT || dst.parent == nullptr) {
      return {0, dst.err};
    }
    Inode* parent = ReadDirBlocks(dst.parent);
    // Both the resolve and the read blocked: the source may have been
    // unlinked (and freed) and the target directory removed meanwhile.
    Inode* node = GetInode(src_ino);
    if (parent == nullptr || node == nullptr || node->nlink == 0) {
      return {0, kENOENT};
    }
    if (parent->children.count(dst.final_name) != 0) {
      return {0, kEEXIST};  // created by another thread meanwhile
    }
    parent->children[dst.final_name] = src_ino;
    node->nlink++;
    TouchDirData(parent);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Symlink(const std::string& target, const std::string& link) {
  trace::TraceEvent proto;
  proto.path = target;
  proto.path2 = link;
  return Traced(trace::Sys::kSymlink, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome dst = Resolve(link, /*follow_last=*/false, /*timed=*/true);
    if (dst.err == 0) {
      return {0, kEEXIST};
    }
    if (dst.err != kENOENT || dst.parent == nullptr) {
      return {0, dst.err};
    }
    Inode* parent = ReadDirBlocks(dst.parent);
    if (parent == nullptr) {
      return {0, kENOENT};
    }
    if (parent->children.count(dst.final_name) != 0) {
      return {0, kEEXIST};  // created by another thread while the read blocked
    }
    Inode* node = NewInode(kTypeSymlink);
    node->symlink_target = target;
    node->nlink = 1;
    node->size = target.size();
    parent->children[dst.final_name] = node->ino;
    TouchDirData(parent);
    DirtyInodeBlock(node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Readlink(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kReadlink, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/false, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    if (r.node->type != kTypeSymlink) {
      return {0, kEINVAL};
    }
    const Inode* node = ReadInodeBlock(r.node);
    if (node == nullptr) {
      return {0, kENOENT};
    }
    return {static_cast<int64_t>(node->symlink_target.size()), 0};
  }, std::move(proto));
}

// ---------------------------------------------------------------------------
// Data operations
// ---------------------------------------------------------------------------

namespace {

// Which file blocks does [offset, offset+count) touch?
struct BlockSpan {
  uint64_t first;
  uint64_t nblocks;
};

BlockSpan SpanFor(int64_t offset, uint64_t count) {
  uint64_t first = static_cast<uint64_t>(offset) / kBlockSize;
  uint64_t last = (static_cast<uint64_t>(offset) + count - 1) / kBlockSize;
  return {first, last - first + 1};
}

}  // namespace

VfsResult Vfs::PreadBody(int32_t fd, uint64_t count, int64_t offset) {
  {
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr || !(of->flags & kOpenRead)) {
      return {0, kEBADF};
    }
    if (offset < 0) {
      return {0, kEINVAL};
    }
    Inode* node = GetInode(of->ino);
    if (node->type == kTypeDir) {
      return {0, kEISDIR};
    }
    if (node->type == kTypeSpecial) {
      TimeNs lat = node->special_kind == "random"  ? platform_.dev_random_read
                   : node->special_kind == "urandom" ? platform_.dev_urandom_read
                                                     : 0;
      sim_->Sleep(lat + Us(1));
      return {static_cast<int64_t>(count), 0};
    }
    if (static_cast<uint64_t>(offset) >= node->size) {
      sim_->Sleep(Us(1));
      return {0, 0};  // EOF
    }
    uint64_t n = std::min(count, node->size - static_cast<uint64_t>(offset));
    if (n == 0) {
      sim_->Sleep(Us(1));
      return {0, 0};
    }
    BlockSpan span = SpanFor(offset, n);
    EnsureExtents(node, span.first + span.nblocks);
    bool sequential = of->next_seq_block == span.first;
    of->next_seq_block = span.first + span.nblocks;
    for (const auto& [lba, nblocks] : MapRange(node, span.first, span.nblocks)) {
      stack_->Read(lba, nblocks, sequential);
    }
    return {static_cast<int64_t>(n), 0};
  }
}

VfsResult Vfs::Pread(int32_t fd, uint64_t count, int64_t offset) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.size = count;
  proto.offset = offset;
  return Traced(trace::Sys::kPRead,
                [&]() -> VfsResult { return PreadBody(fd, count, offset); },
                std::move(proto));
}

VfsResult Vfs::Read(int32_t fd, uint64_t count) {
  OpenFile* of = GetOpenFile(fd);
  int64_t offset = of != nullptr ? of->offset : 0;
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.size = count;
  return Traced(trace::Sys::kRead, [&]() -> VfsResult {
    if (of == nullptr) {
      return {0, kEBADF};
    }
    // The read blocks; a concurrent close may drop the open file meanwhile.
    std::weak_ptr<OpenFile> alive = fd_table_[static_cast<size_t>(fd)];
    VfsResult r = PreadBody(fd, count, offset);
    std::shared_ptr<OpenFile> still = alive.lock();
    if (r.ok() && still != nullptr) {
      still->offset += r.value;
    }
    return r;
  }, std::move(proto));
}

VfsResult Vfs::PwriteBody(int32_t fd, uint64_t count, int64_t offset, bool append) {
  {
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr || !(of->flags & kOpenWrite)) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    if (node->type == kTypeSpecial) {
      sim_->Sleep(Us(1));
      return {static_cast<int64_t>(count), 0};
    }
    if (count == 0) {
      return {0, 0};
    }
    if (append) {
      // Reserve the range at EOF and grow the file *before* any blocking
      // call: concurrent O_APPEND writers must never overlap.
      offset = static_cast<int64_t>(node->size);
      node->size += count;
      DirtyInodeBlock(node);
      JournalAppend();
    }
    if (offset < 0) {
      return {0, kEINVAL};
    }
    BlockSpan span = SpanFor(offset, count);
    EnsureExtents(node, span.first + span.nblocks);
    const uint64_t ino = node->ino;
    for (const auto& [lba, nblocks] : MapRange(node, span.first, span.nblocks)) {
      stack_->Write(lba, nblocks);
    }
    // The writes block; a close + unlink may have freed the file meanwhile.
    node = GetInode(ino);
    uint64_t end = static_cast<uint64_t>(offset) + count;
    if (node != nullptr && !append && end > node->size) {
      node->size = end;
      DirtyInodeBlock(node);
      JournalAppend();
    }
    return {static_cast<int64_t>(count), 0};
  }
}

VfsResult Vfs::Pwrite(int32_t fd, uint64_t count, int64_t offset) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.size = count;
  proto.offset = offset;
  return Traced(trace::Sys::kPWrite,
                [&]() -> VfsResult { return PwriteBody(fd, count, offset); },
                std::move(proto));
}

VfsResult Vfs::Write(int32_t fd, uint64_t count) {
  OpenFile* of = GetOpenFile(fd);
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.size = count;
  return Traced(trace::Sys::kWrite, [&]() -> VfsResult {
    if (of == nullptr) {
      return {0, kEBADF};
    }
    bool append = (of->flags & kOpenAppend) != 0;
    int64_t offset = of->offset;
    // The write blocks; a concurrent close may drop the open file (and with
    // it the last reference to the inode) meanwhile.
    std::weak_ptr<OpenFile> alive = fd_table_[static_cast<size_t>(fd)];
    VfsResult r = PwriteBody(fd, count, offset, append);
    std::shared_ptr<OpenFile> still = alive.lock();
    if (r.ok() && still != nullptr) {
      still->offset = append ? static_cast<int64_t>(GetInode(still->ino)->size)
                             : offset + r.value;
    }
    return r;
  }, std::move(proto));
}

VfsResult Vfs::Lseek(int32_t fd, int64_t offset, int whence) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.offset = offset;
  proto.whence = whence;
  return Traced(trace::Sys::kLSeek, [&]() -> VfsResult {
    sim_->Sleep(Us(1));
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    int64_t base = 0;
    switch (whence) {
      case 0:
        base = 0;
        break;
      case 1:
        base = of->offset;
        break;
      case 2:
        base = static_cast<int64_t>(node->size);
        break;
      default:
        return {0, kEINVAL};
    }
    int64_t pos = base + offset;
    if (pos < 0) {
      return {0, kEINVAL};
    }
    of->offset = pos;
    return {pos, 0};
  }, std::move(proto));
}

VfsResult Vfs::Truncate(const std::string& path, uint64_t length) {
  trace::TraceEvent proto;
  proto.path = path;
  proto.size = length;
  return Traced(trace::Sys::kTruncate, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    if (r.node->type == kTypeDir) {
      return {0, kEISDIR};
    }
    r.node->size = length;
    DirtyInodeBlock(r.node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Ftruncate(int32_t fd, uint64_t length) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.size = length;
  return Traced(trace::Sys::kFtruncate, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr || !(of->flags & kOpenWrite)) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    node->size = length;
    DirtyInodeBlock(node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

VfsResult Vfs::Fsync(int32_t fd) {
  trace::TraceEvent proto;
  proto.fd = fd;
  return Traced(trace::Sys::kFsync, [&]() -> VfsResult {
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    // Flush this file's dirty data.
    if (!node->extents.empty()) {
      stack_->Flush(node->extents);
    }
    if (fs_.fsync_flushes_all_dirty) {
      // ext3-ordered-mode behaviour: everything dirty goes out too.
      while (stack_->cache().DirtyCount() > 0) {
        std::vector<uint64_t> victims = stack_->cache().CollectOldestDirty(1024);
        if (victims.empty()) {
          break;
        }
        std::vector<std::pair<uint64_t, uint32_t>> ranges;
        for (uint64_t b : victims) {
          ranges.push_back({b, 1});
        }
        // Re-dirty and flush so coalescing happens in one place.
        for (const auto& [b, n] : ranges) {
          stack_->cache().InsertDirty(b, n);
        }
        stack_->Flush(ranges);
      }
    }
    JournalCommit();
    if (!platform_.fsync_is_device_flush_only) {
      DeviceBarrier();
    }
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Fdatasync(int32_t fd) {
  trace::TraceEvent proto;
  proto.fd = fd;
  return Traced(trace::Sys::kFdatasync, [&]() -> VfsResult {
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    if (!node->extents.empty()) {
      stack_->Flush(node->extents);
    }
    if (!platform_.fsync_is_device_flush_only) {
      DeviceBarrier();
    }
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::FullFsync(int32_t fd) {
  trace::TraceEvent proto;
  proto.fd = fd;
  return Traced(trace::Sys::kFcntlFullFsync, [&]() -> VfsResult {
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    if (!node->extents.empty()) {
      stack_->Flush(node->extents);
    }
    JournalCommit();
    DeviceBarrier();  // always durable, regardless of platform fsync policy
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::SyncAll() {
  trace::TraceEvent proto;
  return Traced(trace::Sys::kSync, [&]() -> VfsResult {
    while (stack_->cache().DirtyCount() > 0) {
      std::vector<uint64_t> victims = stack_->cache().CollectOldestDirty(1024);
      if (victims.empty()) {
        break;
      }
      std::vector<std::pair<uint64_t, uint32_t>> ranges;
      for (uint64_t b : victims) {
        stack_->cache().InsertDirty(b, 1);
        ranges.push_back({b, 1});
      }
      stack_->Flush(ranges);
    }
    JournalCommit();
    DeviceBarrier();
    return {0, 0};
  }, std::move(proto));
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

VfsResult Vfs::Stat(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kStat, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    const Inode* node = ReadInodeBlock(r.node);
    if (node == nullptr) {
      return {0, kENOENT};
    }
    return {static_cast<int64_t>(node->size), 0};
  }, std::move(proto));
}

VfsResult Vfs::Lstat(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kLstat, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/false, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    const Inode* node = ReadInodeBlock(r.node);
    if (node == nullptr) {
      return {0, kENOENT};
    }
    return {static_cast<int64_t>(node->size), 0};
  }, std::move(proto));
}

VfsResult Vfs::Fstat(int32_t fd) {
  trace::TraceEvent proto;
  proto.fd = fd;
  return Traced(trace::Sys::kFstat, [&]() -> VfsResult {
    sim_->Sleep(Us(1));
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    return {static_cast<int64_t>(GetInode(of->ino)->size), 0};
  }, std::move(proto));
}

VfsResult Vfs::Access(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kAccess, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::StatFs(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kStatFs, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    return {0, r.err};
  }, std::move(proto));
}

VfsResult Vfs::Chmod(const std::string& path, uint32_t mode) {
  trace::TraceEvent proto;
  proto.path = path;
  proto.mode = mode;
  return Traced(trace::Sys::kChmod, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    r.node->mode = mode;
    DirtyInodeBlock(r.node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Utimes(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kUtimes, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    DirtyInodeBlock(r.node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::GetDirEntries(int32_t fd, uint64_t count) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.size = count;
  return Traced(trace::Sys::kGetDirEntries, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    if (node->type != kTypeDir) {
      return {0, kENOTDIR};
    }
    // The read blocks; a concurrent close may drop the open file and, with
    // it, the last reference to a removed directory.
    std::weak_ptr<OpenFile> alive = fd_table_[static_cast<size_t>(fd)];
    node = ReadDirBlocks(node);
    std::shared_ptr<OpenFile> still = alive.lock();
    if (node == nullptr || still == nullptr) {
      return {0, kEBADF};
    }
    of = still.get();
    // One scan returns everything (offset bookkeeping elided): value is the
    // entry count on the first call, 0 on subsequent calls (EOF).
    if (of->offset == 0) {
      of->offset = static_cast<int64_t>(node->children.size());
      return {static_cast<int64_t>(node->children.size()), 0};
    }
    return {0, 0};
  }, std::move(proto));
}

// ---------------------------------------------------------------------------
// Extended attributes
// ---------------------------------------------------------------------------

VfsResult Vfs::GetXattr(const std::string& path, const std::string& name) {
  trace::TraceEvent proto;
  proto.path = path;
  proto.name = name;
  return Traced(trace::Sys::kGetXattr, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    const Inode* node = ReadInodeBlock(r.node);
    if (node == nullptr) {
      return {0, kENOENT};
    }
    auto it = node->xattrs.find(name);
    if (it == node->xattrs.end()) {
      return {0, kENODATA};
    }
    return {static_cast<int64_t>(it->second), 0};
  }, std::move(proto));
}

VfsResult Vfs::SetXattr(const std::string& path, const std::string& name, uint64_t size) {
  trace::TraceEvent proto;
  proto.path = path;
  proto.name = name;
  proto.size = size;
  return Traced(trace::Sys::kSetXattr, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    r.node->xattrs[name] = size;
    DirtyInodeBlock(r.node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::ListXattr(const std::string& path) {
  trace::TraceEvent proto;
  proto.path = path;
  return Traced(trace::Sys::kListXattr, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    const Inode* node = ReadInodeBlock(r.node);
    if (node == nullptr) {
      return {0, kENOENT};
    }
    int64_t total = 0;
    for (const auto& [n, sz] : node->xattrs) {
      total += static_cast<int64_t>(n.size()) + 1;
    }
    return {total, 0};
  }, std::move(proto));
}

VfsResult Vfs::RemoveXattr(const std::string& path, const std::string& name) {
  trace::TraceEvent proto;
  proto.path = path;
  proto.name = name;
  return Traced(trace::Sys::kRemoveXattr, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/true);
    if (r.err != 0) {
      return {0, r.err};
    }
    auto it = r.node->xattrs.find(name);
    if (it == r.node->xattrs.end()) {
      return {0, kENODATA};
    }
    r.node->xattrs.erase(it);
    DirtyInodeBlock(r.node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::FGetXattr(int32_t fd, const std::string& name) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.name = name;
  return Traced(trace::Sys::kFGetXattr, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    auto it = node->xattrs.find(name);
    if (it == node->xattrs.end()) {
      return {0, kENODATA};
    }
    return {static_cast<int64_t>(it->second), 0};
  }, std::move(proto));
}

VfsResult Vfs::FSetXattr(int32_t fd, const std::string& name, uint64_t size) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.name = name;
  proto.size = size;
  return Traced(trace::Sys::kFSetXattr, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    node->xattrs[name] = size;
    DirtyInodeBlock(node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

// ---------------------------------------------------------------------------
// Hints & OS X extras
// ---------------------------------------------------------------------------

VfsResult Vfs::Fadvise(int32_t fd, int64_t offset, uint64_t len) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.offset = offset;
  proto.size = len;
  return Traced(trace::Sys::kFadvise, [&]() -> VfsResult {
    sim_->Sleep(Us(1));
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    if (node->type != kTypeFile || len == 0 || node->size == 0) {
      return {0, 0};
    }
    uint64_t n = std::min(len, node->size - std::min<uint64_t>(offset, node->size));
    if (n == 0) {
      return {0, 0};
    }
    BlockSpan span = SpanFor(offset, n);
    EnsureExtents(node, span.first + span.nblocks);
    for (const auto& [lba, nblocks] : MapRange(node, span.first, span.nblocks)) {
      stack_->Read(lba, nblocks, /*sequential_hint=*/true);
    }
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::Fallocate(int32_t fd, int64_t offset, uint64_t len) {
  trace::TraceEvent proto;
  proto.fd = fd;
  proto.offset = offset;
  proto.size = len;
  return Traced(trace::Sys::kFallocate, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu);
    OpenFile* of = GetOpenFile(fd);
    if (of == nullptr || !(of->flags & kOpenWrite)) {
      return {0, kEBADF};
    }
    Inode* node = GetInode(of->ino);
    BlockSpan span = SpanFor(offset, std::max<uint64_t>(len, 1));
    EnsureExtents(node, span.first + span.nblocks);
    uint64_t end = static_cast<uint64_t>(offset) + len;
    if (end > node->size) {
      node->size = end;
      DirtyInodeBlock(node);
      JournalAppend();
    }
    return {0, 0};
  }, std::move(proto));
}

VfsResult Vfs::ExchangeData(const std::string& a, const std::string& b) {
  trace::TraceEvent proto;
  proto.path = a;
  proto.path2 = b;
  return Traced(trace::Sys::kExchangeData, [&]() -> VfsResult {
    sim_->Sleep(fs_.meta_cpu * 2);
    ResolveOutcome ra = Resolve(a, /*follow_last=*/true, /*timed=*/true);
    if (ra.err != 0) {
      return {0, ra.err};
    }
    const uint64_t a_ino = ra.node->ino;
    ResolveOutcome rb = Resolve(b, /*follow_last=*/true, /*timed=*/true);
    if (rb.err != 0) {
      return {0, rb.err};
    }
    ra.node = GetInode(a_ino);  // resolving `b` blocked; `a` may be gone
    if (ra.node == nullptr) {
      return {0, kENOENT};
    }
    if (ra.node->type != kTypeFile || rb.node->type != kTypeFile) {
      return {0, kEINVAL};
    }
    std::swap(ra.node->size, rb.node->size);
    std::swap(ra.node->extents, rb.node->extents);
    std::swap(ra.node->allocated_blocks, rb.node->allocated_blocks);
    DirtyInodeBlock(ra.node);
    DirtyInodeBlock(rb.node);
    JournalAppend();
    return {0, 0};
  }, std::move(proto));
}

// ---------------------------------------------------------------------------
// Infrastructure
// ---------------------------------------------------------------------------

bool Vfs::Exists(const std::string& path) {
  ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/false);
  return r.err == 0;
}

uint64_t Vfs::FileSize(const std::string& path) {
  ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/false);
  return r.err == 0 ? r.node->size : 0;
}

uint32_t Vfs::LinkCount(const std::string& path) {
  ResolveOutcome r = Resolve(path, /*follow_last=*/false, /*timed=*/false);
  return r.err == 0 ? r.node->nlink : 0;
}

void Vfs::MustMkdirAll(const std::string& path) {
  std::string norm = NormalizePath(path);
  Inode* dir = GetInode(root_ino_);
  for (std::string_view comp : SplitPath(norm)) {
    std::string name(comp);
    auto it = dir->children.find(name);
    if (it != dir->children.end()) {
      dir = GetInode(it->second);
      ARTC_CHECK_MSG(dir->type == kTypeDir, "MustMkdirAll: %s has a non-dir component",
                     norm.c_str());
      continue;
    }
    Inode* child = NewInode(kTypeDir);
    child->nlink = 2;
    dir->children[name] = child->ino;
    dir->nlink++;
    dir->size = (dir->children.size() / kDirEntriesPerBlock + 1) * kBlockSize;
    dir = child;
  }
}

void Vfs::MustCreateFile(const std::string& path, uint64_t size) {
  std::string norm = NormalizePath(path);
  MustMkdirAll(std::string(DirName(norm)));
  ResolveOutcome r = Resolve(norm, /*follow_last=*/false, /*timed=*/false);
  Inode* node = nullptr;
  if (r.err == 0) {
    node = r.node;
    ARTC_CHECK_MSG(node->type == kTypeFile, "MustCreateFile: %s exists as non-file",
                   norm.c_str());
  } else {
    ARTC_CHECK_MSG(r.err == kENOENT && r.parent != nullptr, "MustCreateFile: bad path %s",
                   norm.c_str());
    node = NewInode(kTypeFile);
    node->nlink = 1;
    r.parent->children[r.final_name] = node->ino;
    r.parent->size = (r.parent->children.size() / kDirEntriesPerBlock + 1) * kBlockSize;
  }
  node->size = size;
  if (size > 0) {
    EnsureExtents(node, BlocksForSize(size));
  }
}

void Vfs::MustCreateSymlink(const std::string& path, const std::string& target) {
  std::string norm = NormalizePath(path);
  MustMkdirAll(std::string(DirName(norm)));
  ResolveOutcome r = Resolve(norm, /*follow_last=*/false, /*timed=*/false);
  if (r.err == 0 && r.node->type == kTypeSymlink) {
    r.node->symlink_target = target;
    return;
  }
  ARTC_CHECK_MSG(r.err == kENOENT && r.parent != nullptr, "MustCreateSymlink: bad path %s",
                 norm.c_str());
  Inode* node = NewInode(kTypeSymlink);
  node->nlink = 1;
  node->symlink_target = target;
  node->size = target.size();
  r.parent->children[r.final_name] = node->ino;
}

void Vfs::MustCreateSpecial(const std::string& path, const std::string& kind) {
  std::string norm = NormalizePath(path);
  MustMkdirAll(std::string(DirName(norm)));
  ResolveOutcome r = Resolve(norm, /*follow_last=*/false, /*timed=*/false);
  if (r.err == 0 && r.node->type == kTypeSpecial) {
    r.node->special_kind = kind;
    return;
  }
  ARTC_CHECK_MSG(r.err == kENOENT && r.parent != nullptr, "MustCreateSpecial: bad path %s",
                 norm.c_str());
  Inode* node = NewInode(kTypeSpecial);
  node->nlink = 1;
  node->special_kind = kind;
  r.parent->children[r.final_name] = node->ino;
}

void Vfs::MustSetXattr(const std::string& path, const std::string& name, uint64_t size) {
  ResolveOutcome r = Resolve(path, /*follow_last=*/true, /*timed=*/false);
  ARTC_CHECK_MSG(r.err == 0, "MustSetXattr: %s not found", path.c_str());
  r.node->xattrs[name] = size;
}

trace::FsSnapshot Vfs::CaptureSnapshot() const {
  trace::FsSnapshot snap;
  const Inode* root = GetInode(root_ino_);
  for (const auto& [name, child_ino] : root->children) {
    const Inode* child = GetInode(child_ino);
    std::string child_path = "/" + name;
    std::vector<std::pair<std::string, const Inode*>> stack = {{child_path, child}};
    while (!stack.empty()) {
      auto [p, node] = stack.back();
      stack.pop_back();
      switch (node->type) {
        case kTypeDir: {
          snap.AddDir(p);
          for (const auto& [n2, i2] : node->children) {
            stack.push_back({JoinPath(p, n2), GetInode(i2)});
          }
          break;
        }
        case kTypeFile: {
          snap.AddFile(p, node->size);
          for (const auto& [xname, xsize] : node->xattrs) {
            snap.entries.back().xattr_names.push_back(xname);
          }
          break;
        }
        case kTypeSymlink:
          snap.AddSymlink(p, node->symlink_target);
          break;
        case kTypeSpecial:
          snap.AddSpecial(p, node->special_kind);
          break;
        default:
          break;
      }
    }
  }
  snap.Canonicalize();
  return snap;
}

void Vfs::RestoreSnapshot(const trace::FsSnapshot& snapshot, bool delta) {
  if (!delta) {
    // Full init: wipe and recreate.
    Inode* root = GetInode(root_ino_);
    std::vector<uint64_t> doomed;
    for (const auto& [name, ino] : root->children) {
      doomed.push_back(ino);
    }
    root->children.clear();
    // Inodes for the old tree are simply dropped; extents are not reclaimed
    // (bump allocator), which also models a freshly-aged device reasonably.
    for (uint64_t ino : doomed) {
      std::vector<uint64_t> queue = {ino};
      while (!queue.empty()) {
        uint64_t cur = queue.back();
        queue.pop_back();
        Inode* node = GetInode(cur);
        if (node == nullptr) {
          continue;
        }
        for (const auto& [n2, i2] : node->children) {
          queue.push_back(i2);
        }
        for (const auto& [lba, nblocks] : node->extents) {
          stack_->Discard(lba, nblocks);
        }
        inodes_.erase(cur);
      }
    }
  }
  for (const trace::SnapshotEntry& e : snapshot.entries) {
    switch (e.type) {
      case trace::SnapshotEntryType::kDir:
        MustMkdirAll(e.path);
        break;
      case trace::SnapshotEntryType::kFile: {
        if (delta && Exists(e.path) && FileSize(e.path) == e.size) {
          break;  // already in place
        }
        MustCreateFile(e.path, e.size);
        for (const std::string& x : e.xattr_names) {
          MustSetXattr(e.path, x, 16);
        }
        break;
      }
      case trace::SnapshotEntryType::kSymlink:
        if (!(delta && Exists(e.path))) {
          MustCreateSymlink(e.path, e.symlink_target);
        }
        break;
      case trace::SnapshotEntryType::kSpecial:
        MustCreateSpecial(e.path, e.special_kind);
        break;
    }
  }
  if (delta) {
    // Remove files present in the tree but absent from the snapshot.
    trace::FsSnapshot current = CaptureSnapshot();
    for (const trace::SnapshotEntry& e : current.entries) {
      if (e.type == trace::SnapshotEntryType::kFile && snapshot.Find(e.path) == nullptr) {
        ResolveOutcome r = Resolve(e.path, /*follow_last=*/false, /*timed=*/false);
        if (r.err == 0) {
          r.parent->children.erase(r.final_name);
          r.node->nlink = 0;
          UnrefInode(r.node->ino);
        }
      }
    }
  }
}

}  // namespace artc::vfs
