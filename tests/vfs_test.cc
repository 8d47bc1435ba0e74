#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>

#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/trace/event.h"
#include "src/vfs/vfs.h"

namespace artc::vfs {
namespace {

using trace::kEBADF;
using trace::kEEXIST;
using trace::kEINVAL;
using trace::kEISDIR;
using trace::kENODATA;
using trace::kENOENT;
using trace::kENOTDIR;
using trace::kENOTEMPTY;
using trace::kOpenAppend;
using trace::kOpenCreate;
using trace::kOpenExcl;
using trace::kOpenRead;
using trace::kOpenTrunc;
using trace::kOpenWrite;

// Runs `body` inside a simulated thread against a fresh VFS and returns
// after the simulation drains.
class VfsTest : public ::testing::Test {
 protected:
  void RunInSim(std::function<void(Vfs&)> body, const std::string& fs = "ext4",
                const std::string& storage = "ssd") {
    sim::Simulation sim(1);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig(storage));
    Vfs vfs(&sim, &stack, MakeFsProfile(fs));
    sim.Spawn("test", [&] { body(vfs); });
    sim.Run();
    ASSERT_EQ(sim.UnfinishedThreads(), 0u);
  }
};

TEST_F(VfsTest, CreateWriteReadRoundTrip) {
  RunInSim([](Vfs& vfs) {
    vfs.MustMkdirAll("/data");
    VfsResult open = vfs.Open("/data/f", kOpenWrite | kOpenCreate, 0644);
    ASSERT_TRUE(open.ok());
    int32_t fd = static_cast<int32_t>(open.value);
    EXPECT_GE(fd, 3);
    EXPECT_EQ(vfs.Write(fd, 8192).value, 8192);
    EXPECT_TRUE(vfs.Close(fd).ok());
    EXPECT_EQ(vfs.FileSize("/data/f"), 8192u);

    VfsResult ro = vfs.Open("/data/f", kOpenRead);
    ASSERT_TRUE(ro.ok());
    fd = static_cast<int32_t>(ro.value);
    EXPECT_EQ(vfs.Read(fd, 4096).value, 4096);
    EXPECT_EQ(vfs.Read(fd, 8192).value, 4096);  // clamped at EOF
    EXPECT_EQ(vfs.Read(fd, 10).value, 0);       // EOF
    EXPECT_TRUE(vfs.Close(fd).ok());
  });
}

TEST_F(VfsTest, OpenErrnoSemantics) {
  RunInSim([](Vfs& vfs) {
    EXPECT_EQ(vfs.Open("/missing", kOpenRead).err, kENOENT);
    EXPECT_EQ(vfs.Open("/missing/deeper", kOpenWrite | kOpenCreate).err, kENOENT);
    vfs.MustCreateFile("/f", 0);
    EXPECT_EQ(vfs.Open("/f", kOpenWrite | kOpenCreate | kOpenExcl).err, kEEXIST);
    vfs.MustMkdirAll("/d");
    EXPECT_EQ(vfs.Open("/d", kOpenWrite).err, kEISDIR);
    EXPECT_EQ(vfs.Open("/f/x", kOpenRead).err, kENOTDIR);
  });
}

TEST_F(VfsTest, LowestFreeFdAllocation) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 0);
    vfs.MustCreateFile("/b", 0);
    int32_t fd1 = static_cast<int32_t>(vfs.Open("/a", kOpenRead).value);
    int32_t fd2 = static_cast<int32_t>(vfs.Open("/b", kOpenRead).value);
    EXPECT_EQ(fd1, 3);
    EXPECT_EQ(fd2, 4);
    vfs.Close(fd1);
    int32_t fd3 = static_cast<int32_t>(vfs.Open("/b", kOpenRead).value);
    EXPECT_EQ(fd3, 3);  // reuses the lowest free slot
  });
}

TEST_F(VfsTest, ReadBadFdAndWrongMode) {
  RunInSim([](Vfs& vfs) {
    EXPECT_EQ(vfs.Read(42, 10).err, kEBADF);
    vfs.MustCreateFile("/f", 4096);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenWrite).value);
    EXPECT_EQ(vfs.Read(fd, 10).err, kEBADF);  // not open for reading
    EXPECT_EQ(vfs.Pwrite(fd, 10, -1).err, kEINVAL);
    vfs.Close(fd);
    EXPECT_EQ(vfs.Write(fd, 10).err, kEBADF);  // closed
  });
}

TEST_F(VfsTest, AppendModeWritesAtEnd) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/log", 4096);
    int32_t fd = static_cast<int32_t>(vfs.Open("/log", kOpenWrite | kOpenAppend).value);
    vfs.Write(fd, 100);
    EXPECT_EQ(vfs.FileSize("/log"), 4196u);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, TruncateOnOpen) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1 << 20);
    int32_t fd =
        static_cast<int32_t>(vfs.Open("/f", kOpenWrite | kOpenTrunc).value);
    EXPECT_EQ(vfs.FileSize("/f"), 0u);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, LseekWhence) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1000);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    EXPECT_EQ(vfs.Lseek(fd, 100, 0).value, 100);
    EXPECT_EQ(vfs.Lseek(fd, 50, 1).value, 150);
    EXPECT_EQ(vfs.Lseek(fd, -100, 2).value, 900);
    EXPECT_EQ(vfs.Lseek(fd, -5000, 0).err, kEINVAL);
    EXPECT_EQ(vfs.Lseek(fd, 0, 9).err, kEINVAL);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, MkdirRmdirSemantics) {
  RunInSim([](Vfs& vfs) {
    EXPECT_TRUE(vfs.Mkdir("/d").ok());
    EXPECT_EQ(vfs.Mkdir("/d").err, kEEXIST);
    EXPECT_TRUE(vfs.Mkdir("/d/sub").ok());
    EXPECT_EQ(vfs.Rmdir("/d").err, kENOTEMPTY);
    EXPECT_TRUE(vfs.Rmdir("/d/sub").ok());
    EXPECT_TRUE(vfs.Rmdir("/d").ok());
    EXPECT_EQ(vfs.Rmdir("/d").err, kENOENT);
  });
}

// mkdir /d/x blocks in the HDD read of /d's directory block while a second
// thread removes the still-empty /d. The mkdir must notice its parent is
// gone and fail with ENOENT instead of linking into the freed directory.
TEST_F(VfsTest, MkdirFailsWhenParentRemovedDuringDirectoryRead) {
  sim::Simulation sim(1);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("hdd"));
  Vfs vfs(&sim, &stack, MakeFsProfile("ext4"));
  vfs.MustMkdirAll("/d");
  vfs.MustCreateFile("/big", 256ULL << 20);
  TimeNs mkdir_start = -1;
  TimeNs mkdir_end = 0;
  TimeNs rmdir_end = 0;
  VfsResult mk;
  VfsResult rm;
  sim.Spawn("mkdir", [&] {
    // Cache root's directory block (so the rmdir below never waits on the
    // disk), then park the head at the start of /big, 256 MB away from where
    // /d's directory block gets allocated: the mkdir's read of it seeks.
    EXPECT_TRUE(vfs.Mkdir("/warm").ok());
    int32_t fd = static_cast<int32_t>(vfs.Open("/big", kOpenRead).value);
    EXPECT_EQ(vfs.Pread(fd, 4096, 0).value, 4096);
    EXPECT_TRUE(vfs.Close(fd).ok());
    mkdir_start = sim.Now();
    mk = vfs.Mkdir("/d/x");
    mkdir_end = sim.Now();
  });
  sim.Spawn("rmdir", [&] {
    while (mkdir_start < 0) {
      sim.Sleep(Us(1));
    }
    // Past the mkdir's path lookups (a few microseconds of CPU), well inside
    // its uncached directory read (milliseconds on the HDD).
    sim.Sleep(Us(200));
    rm = vfs.Rmdir("/d");
    rmdir_end = sim.Now();
  });
  sim.Run();
  ASSERT_EQ(sim.UnfinishedThreads(), 0u);
  EXPECT_EQ(rm.err, 0);
  EXPECT_LT(rmdir_end, mkdir_end);
  EXPECT_EQ(mk.err, kENOENT);
  EXPECT_FALSE(vfs.Exists("/d"));
}

TEST_F(VfsTest, UnlinkSemantics) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 100);
    vfs.MustMkdirAll("/d");
    EXPECT_EQ(vfs.Unlink("/d").err, kEISDIR);
    EXPECT_TRUE(vfs.Unlink("/f").ok());
    EXPECT_EQ(vfs.Unlink("/f").err, kENOENT);
    EXPECT_FALSE(vfs.Exists("/f"));
  });
}

TEST_F(VfsTest, OrphanedOpenFileSurvivesUnlink) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 8192);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    EXPECT_TRUE(vfs.Unlink("/f").ok());
    EXPECT_FALSE(vfs.Exists("/f"));
    EXPECT_EQ(vfs.Read(fd, 4096).value, 4096);  // still readable
    EXPECT_TRUE(vfs.Close(fd).ok());
  });
}

TEST_F(VfsTest, RenameBasicAndReplace) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 100);
    vfs.MustCreateFile("/b", 200);
    EXPECT_TRUE(vfs.Rename("/a", "/c").ok());
    EXPECT_FALSE(vfs.Exists("/a"));
    EXPECT_EQ(vfs.FileSize("/c"), 100u);
    EXPECT_TRUE(vfs.Rename("/c", "/b").ok());  // replaces /b
    EXPECT_EQ(vfs.FileSize("/b"), 100u);
    EXPECT_EQ(vfs.Rename("/missing", "/x").err, kENOENT);
  });
}

TEST_F(VfsTest, RenameDirectoryMovesSubtree) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/old/sub/file", 64);
    EXPECT_TRUE(vfs.Rename("/old", "/new").ok());
    EXPECT_TRUE(vfs.Exists("/new/sub/file"));
    EXPECT_FALSE(vfs.Exists("/old/sub/file"));
  });
}

TEST_F(VfsTest, RenameTypeMismatch) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1);
    vfs.MustMkdirAll("/d");
    EXPECT_EQ(vfs.Rename("/f", "/d").err, kEISDIR);
    EXPECT_EQ(vfs.Rename("/d", "/f").err, kENOTDIR);
    vfs.MustCreateFile("/d2/x", 1);
    EXPECT_EQ(vfs.Rename("/d", "/d2").err, kENOTEMPTY);
  });
}

// Replacing an empty directory drops the link its ".." held on its parent.
TEST_F(VfsTest, RenameOverDirectoryDropsParentLink) {
  RunInSim([](Vfs& vfs) {
    vfs.MustMkdirAll("/p/a");
    vfs.MustMkdirAll("/p/b");
    ASSERT_EQ(vfs.LinkCount("/p"), 4u);
    ASSERT_TRUE(vfs.Rename("/p/a", "/p/b").ok());
    EXPECT_EQ(vfs.LinkCount("/p"), 3u);
    EXPECT_EQ(vfs.LinkCount("/p/b"), 2u);

    vfs.MustMkdirAll("/q/mover");
    vfs.MustMkdirAll("/r/victim");
    ASSERT_EQ(vfs.LinkCount("/q"), 3u);
    ASSERT_EQ(vfs.LinkCount("/r"), 3u);
    ASSERT_TRUE(vfs.Rename("/q/mover", "/r/victim").ok());
    EXPECT_EQ(vfs.LinkCount("/q"), 2u);
    EXPECT_EQ(vfs.LinkCount("/r"), 3u);
    EXPECT_EQ(vfs.LinkCount("/r/victim"), 2u);
  });
}

TEST_F(VfsTest, HardLinksShareFile) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 4096);
    EXPECT_TRUE(vfs.Link("/f", "/l").ok());
    EXPECT_EQ(vfs.Link("/f", "/l").err, kEEXIST);
    EXPECT_TRUE(vfs.Unlink("/f").ok());
    EXPECT_TRUE(vfs.Exists("/l"));  // other link keeps the file alive
    EXPECT_EQ(vfs.FileSize("/l"), 4096u);
  });
}

TEST_F(VfsTest, SymlinkResolution) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/target", 512);
    EXPECT_TRUE(vfs.Symlink("/target", "/link").ok());
    EXPECT_EQ(vfs.Stat("/link").value, 512);         // follows
    EXPECT_EQ(vfs.Lstat("/link").value, 7);          // link itself (strlen)
    VfsResult rl = vfs.Readlink("/link");
    EXPECT_EQ(rl.value, 7);
    EXPECT_EQ(vfs.Readlink("/target").err, kEINVAL);
    int32_t fd = static_cast<int32_t>(vfs.Open("/link", kOpenRead).value);
    EXPECT_GE(fd, 3);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, SymlinkThroughDirectories) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/real/dir/file", 64);
    vfs.MustCreateSymlink("/alias", "/real/dir");
    EXPECT_TRUE(vfs.Exists("/alias/file"));
    EXPECT_EQ(vfs.Stat("/alias/file").value, 64);
  });
}

TEST_F(VfsTest, SymlinkLoopDetected) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateSymlink("/x", "/y");
    vfs.MustCreateSymlink("/y", "/x");
    EXPECT_EQ(vfs.Stat("/x").err, trace::kELOOP);
  });
}

TEST_F(VfsTest, DanglingSymlinkEnoent) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateSymlink("/dangling", "/nowhere");
    EXPECT_EQ(vfs.Stat("/dangling").err, kENOENT);
    EXPECT_TRUE(vfs.Lstat("/dangling").ok());
  });
}

TEST_F(VfsTest, XattrLifecycle) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1);
    EXPECT_EQ(vfs.GetXattr("/f", "user.k").err, kENODATA);
    EXPECT_TRUE(vfs.SetXattr("/f", "user.k", 32).ok());
    EXPECT_EQ(vfs.GetXattr("/f", "user.k").value, 32);
    EXPECT_GT(vfs.ListXattr("/f").value, 0);
    EXPECT_TRUE(vfs.RemoveXattr("/f", "user.k").ok());
    EXPECT_EQ(vfs.RemoveXattr("/f", "user.k").err, kENODATA);
  });
}

TEST_F(VfsTest, DupSharesOffset) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 8192);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    int32_t dup = static_cast<int32_t>(vfs.Dup(fd).value);
    EXPECT_NE(fd, dup);
    vfs.Read(fd, 4096);
    EXPECT_EQ(vfs.Lseek(dup, 0, 1).value, 4096);  // shared offset
    vfs.Close(fd);
    EXPECT_EQ(vfs.Read(dup, 100).value, 100);  // description still open
    vfs.Close(dup);
  });
}

TEST_F(VfsTest, Dup2ClosesTarget) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 10);
    vfs.MustCreateFile("/b", 10);
    int32_t fa = static_cast<int32_t>(vfs.Open("/a", kOpenRead).value);
    int32_t fb = static_cast<int32_t>(vfs.Open("/b", kOpenRead).value);
    EXPECT_EQ(vfs.Dup2(fa, fb).value, fb);
    EXPECT_EQ(vfs.Lseek(fb, 0, 2).value, 10);  // fb now refers to /a's OFD
    vfs.Close(fa);
    vfs.Close(fb);
  });
}

// open_count counts open file descriptions, so a dup'ed file is still freed
// (and its dirty pages discarded) once every fd is closed and it is unlinked.
TEST_F(VfsTest, DupedFileFreedAfterCloseAndUnlink) {
  RunInSim([](Vfs& vfs) {
    const size_t inodes = vfs.InodeCount();
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenWrite | kOpenCreate).value);
    const uint64_t dirty_before_write = vfs.stack().cache().DirtyCount();
    EXPECT_EQ(vfs.Write(fd, 1 << 20).value, 1 << 20);
    EXPECT_GE(vfs.stack().cache().DirtyCount(), dirty_before_write + 256);
    int32_t dup = static_cast<int32_t>(vfs.Dup(fd).value);
    int32_t dup2 = static_cast<int32_t>(vfs.Dup2(fd, 40).value);
    EXPECT_EQ(dup2, 40);
    EXPECT_TRUE(vfs.Close(fd).ok());
    EXPECT_TRUE(vfs.Close(dup).ok());
    EXPECT_EQ(vfs.InodeCount(), inodes + 1);  // fd 40 still holds it
    EXPECT_TRUE(vfs.Close(dup2).ok());
    EXPECT_TRUE(vfs.Unlink("/f").ok());
    EXPECT_EQ(vfs.InodeCount(), inodes);
    EXPECT_EQ(vfs.stack().cache().DirtyCount(), dirty_before_write);
  });
}

// Two threads create the same name while both block in the HDD read of the
// parent's directory block. Exactly one create may win; the other must see
// the name taken (mkdir/symlink/link/O_EXCL: EEXIST, plain O_CREAT: opens
// it), and no inode or parent link may be counted twice.
class CreateRaceTest : public ::testing::Test {
 protected:
  // Runs `create` on two threads at once; returns their results.
  std::pair<VfsResult, VfsResult> Race(const std::function<VfsResult(Vfs&)>& create) {
    sim::Simulation sim(1);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig("hdd"));
    Vfs vfs(&sim, &stack, MakeFsProfile("ext4"));
    vfs.MustMkdirAll("/d");
    vfs.MustCreateFile("/src", 4096);
    const size_t inodes = vfs.InodeCount();
    std::pair<VfsResult, VfsResult> results;
    sim.Spawn("a", [&] { results.first = create(vfs); });
    sim.Spawn("b", [&] { results.second = create(vfs); });
    sim.Run();
    EXPECT_EQ(sim.UnfinishedThreads(), 0u);
    EXPECT_TRUE(vfs.Exists("/d/x"));
    new_inodes_ = vfs.InodeCount() - inodes;
    parent_links_ = vfs.LinkCount("/d");
    src_links_ = vfs.LinkCount("/src");
    return results;
  }
  size_t new_inodes_ = 0;
  uint32_t parent_links_ = 0;
  uint32_t src_links_ = 0;
};

TEST_F(CreateRaceTest, MkdirOneWinner) {
  auto [a, b] = Race([](Vfs& vfs) { return vfs.Mkdir("/d/x"); });
  EXPECT_EQ(a.ok() + b.ok(), 1);
  EXPECT_EQ(a.ok() ? b.err : a.err, kEEXIST);
  EXPECT_EQ(new_inodes_, 1u);
  EXPECT_EQ(parent_links_, 3u);  // ".", its entry in "/", and x's ".."
}

TEST_F(CreateRaceTest, SymlinkOneWinner) {
  auto [a, b] = Race([](Vfs& vfs) { return vfs.Symlink("/src", "/d/x"); });
  EXPECT_EQ(a.ok() + b.ok(), 1);
  EXPECT_EQ(a.ok() ? b.err : a.err, kEEXIST);
  EXPECT_EQ(new_inodes_, 1u);
}

TEST_F(CreateRaceTest, LinkOneWinner) {
  auto [a, b] = Race([](Vfs& vfs) { return vfs.Link("/src", "/d/x"); });
  EXPECT_EQ(a.ok() + b.ok(), 1);
  EXPECT_EQ(a.ok() ? b.err : a.err, kEEXIST);
  EXPECT_EQ(new_inodes_, 0u);
  EXPECT_EQ(src_links_, 2u);
}

TEST_F(CreateRaceTest, ExclusiveOpenOneWinner) {
  auto [a, b] = Race([](Vfs& vfs) {
    VfsResult r = vfs.Open("/d/x", kOpenWrite | kOpenCreate | kOpenExcl);
    if (r.ok()) {
      vfs.Close(static_cast<int32_t>(r.value));
    }
    return r;
  });
  EXPECT_EQ(a.ok() + b.ok(), 1);
  EXPECT_EQ(a.ok() ? b.err : a.err, kEEXIST);
  EXPECT_EQ(new_inodes_, 1u);
}

TEST_F(CreateRaceTest, PlainCreateOpensTheWinnersFile) {
  auto [a, b] = Race([](Vfs& vfs) {
    VfsResult r = vfs.Open("/d/x", kOpenWrite | kOpenCreate);
    if (r.ok()) {
      vfs.Close(static_cast<int32_t>(r.value));
    }
    return r;
  });
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(new_inodes_, 1u);
}

TEST_F(CreateRaceTest, RenameReplacesAConcurrentCreate) {
  // The first thread renames /src onto /d/x while the second creates /d/x;
  // either way /src's inode ends up at /d/x and no created file survives.
  int calls = 0;
  auto [a, b] = Race([&calls](Vfs& vfs) {
    if (calls++ == 0) {
      return vfs.Rename("/src", "/d/x");
    }
    VfsResult r = vfs.Open("/d/x", kOpenWrite | kOpenCreate);
    if (r.ok()) {
      vfs.Close(static_cast<int32_t>(r.value));
    }
    return r;
  });
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(new_inodes_, 0u);
}

TEST_F(VfsTest, GetDirEntries) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/d/a", 1);
    vfs.MustCreateFile("/d/b", 1);
    vfs.MustCreateFile("/d/c", 1);
    int32_t fd = static_cast<int32_t>(vfs.Open("/d", kOpenRead).value);
    EXPECT_EQ(vfs.GetDirEntries(fd, 4096).value, 3);
    EXPECT_EQ(vfs.GetDirEntries(fd, 4096).value, 0);  // EOF
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, FsyncWritesJournalAndData) {
  RunInSim([](Vfs& vfs) {
    vfs.MustMkdirAll("/d");
    int32_t fd =
        static_cast<int32_t>(vfs.Open("/d/f", kOpenWrite | kOpenCreate).value);
    vfs.Write(fd, 64 * 1024);
    uint64_t before = vfs.stack().MediaWriteBlocks();
    EXPECT_TRUE(vfs.Fsync(fd).ok());
    EXPECT_GT(vfs.stack().MediaWriteBlocks(), before + 15);  // 16 data blocks+journal
    EXPECT_GT(vfs.JournalCommitBlocks(), 0u);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, Ext3FsyncFlushesForeignDirtyData) {
  // ext3 ordered mode: fsync of one file also flushes other files' dirty
  // pages; ext4 does not.
  auto dirty_after_fsync = [this](const std::string& fs) {
    uint64_t result = 0;
    RunInSim(
        [&result](Vfs& vfs) {
          vfs.MustCreateFile("/other", 0);
          vfs.MustCreateFile("/mine", 0);
          int32_t other =
              static_cast<int32_t>(vfs.Open("/other", kOpenWrite).value);
          int32_t mine = static_cast<int32_t>(vfs.Open("/mine", kOpenWrite).value);
          vfs.Write(other, 256 * 1024);
          vfs.Write(mine, 4096);
          vfs.Fsync(mine);
          result = vfs.stack().cache().DirtyCount();
          vfs.Close(other);
          vfs.Close(mine);
        },
        fs);
    return result;
  };
  EXPECT_EQ(dirty_after_fsync("ext3"), 0u);
  EXPECT_GT(dirty_after_fsync("ext4"), 0u);
}

TEST_F(VfsTest, ExchangeDataSwapsContents) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 100);
    vfs.MustCreateFile("/b", 9999);
    EXPECT_TRUE(vfs.ExchangeData("/a", "/b").ok());
    EXPECT_EQ(vfs.FileSize("/a"), 9999u);
    EXPECT_EQ(vfs.FileSize("/b"), 100u);
    EXPECT_EQ(vfs.ExchangeData("/a", "/missing").err, kENOENT);
  });
}

TEST_F(VfsTest, SpecialFileLatencies) {
  // /dev/random is slow on the Linux platform profile, fast on OS X.
  auto read_latency = [](const std::string& platform) {
    sim::Simulation sim(1);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
    Vfs vfs(&sim, &stack, MakeFsProfile("ext4"), MakePlatformProfile(platform));
    TimeNs elapsed = 0;
    sim.Spawn("t", [&] {
      vfs.MustCreateSpecial("/dev/random", "random");
      int32_t fd = static_cast<int32_t>(vfs.Open("/dev/random", kOpenRead).value);
      TimeNs t0 = sim.Now();
      vfs.Read(fd, 64);
      elapsed = sim.Now() - t0;
      vfs.Close(fd);
    });
    sim.Run();
    return elapsed;
  };
  EXPECT_GT(read_latency("linux"), Ms(10));
  EXPECT_LT(read_latency("osx"), Ms(1));
}

TEST_F(VfsTest, TracingRecordsEvents) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 8192);
    trace::Trace t;
    TraceRecorder rec(&t);
    vfs.StartTracing(&rec);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    vfs.Read(fd, 4096);
    vfs.Close(fd);
    vfs.Open("/nope", kOpenRead);
    vfs.StopTracing();
    ASSERT_EQ(t.events.size(), 4u);
    EXPECT_EQ(t.events[0].call, trace::Sys::kOpen);
    EXPECT_EQ(t.events[0].ret, fd);
    EXPECT_EQ(t.events[1].call, trace::Sys::kRead);
    EXPECT_EQ(t.events[1].ret, 4096);
    EXPECT_EQ(t.events[3].ret, -kENOENT);
    EXPECT_LE(t.events[0].enter, t.events[0].ret_time);
    EXPECT_LE(t.events[0].ret_time, t.events[1].enter);
  });
}

TEST_F(VfsTest, SnapshotCaptureRestoreRoundTrip) {
  sim::Simulation sim(1);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  Vfs src(&sim, &stack, MakeFsProfile("ext4"));
  src.MustCreateFile("/app/data/file1", 12345);
  src.MustCreateFile("/app/data/file2", 777);
  src.MustSetXattr("/app/data/file1", "user.tag", 8);
  src.MustCreateSymlink("/app/link", "/app/data/file1");
  src.MustCreateSpecial("/dev/urandom", "urandom");
  trace::FsSnapshot snap = src.CaptureSnapshot();

  storage::StorageStack stack2(&sim, storage::MakeNamedConfig("hdd"));
  Vfs dst(&sim, &stack2, MakeFsProfile("xfs"));
  dst.RestoreSnapshot(snap);
  EXPECT_EQ(dst.FileSize("/app/data/file1"), 12345u);
  EXPECT_EQ(dst.FileSize("/app/data/file2"), 777u);
  EXPECT_TRUE(dst.Exists("/app/link"));
  sim.Spawn("t", [&] {
    EXPECT_EQ(dst.GetXattr("/app/data/file1", "user.tag").value, 16);
    EXPECT_EQ(dst.Stat("/app/link").value, 12345);
  });
  sim.Run();
}

TEST_F(VfsTest, DeltaInitOnlyTouchesDifferences) {
  sim::Simulation sim(1);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  Vfs vfs(&sim, &stack, MakeFsProfile("ext4"));
  vfs.MustCreateFile("/keep", 100);
  vfs.MustCreateFile("/resize", 100);
  vfs.MustCreateFile("/remove", 100);
  trace::FsSnapshot snap;
  snap.AddFile("/keep", 100);
  snap.AddFile("/resize", 999);
  snap.AddFile("/add", 50);
  snap.Canonicalize();
  vfs.RestoreSnapshot(snap, /*delta=*/true);
  EXPECT_EQ(vfs.FileSize("/keep"), 100u);
  EXPECT_EQ(vfs.FileSize("/resize"), 999u);
  EXPECT_EQ(vfs.FileSize("/add"), 50u);
  EXPECT_FALSE(vfs.Exists("/remove"));
}

TEST_F(VfsTest, SequentialReadFasterThanRandomOnHdd) {
  auto elapsed = [](bool sequential) {
    sim::Simulation sim(3);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig("hdd"));
    Vfs vfs(&sim, &stack, MakeFsProfile("ext4"));
    TimeNs t = 0;
    sim.Spawn("reader", [&] {
      vfs.MustCreateFile("/big", 64ULL << 20);  // 64 MB
      int32_t fd = static_cast<int32_t>(vfs.Open("/big", kOpenRead).value);
      Rng rng(7);
      TimeNs t0 = sim.Now();
      for (int i = 0; i < 200; ++i) {
        int64_t off = sequential ? i * 4096
                                 : static_cast<int64_t>(rng.NextBelow(16000)) * 4096;
        vfs.Pread(fd, 4096, off);
      }
      t = sim.Now() - t0;
      vfs.Close(fd);
    });
    sim.Run();
    return t;
  };
  EXPECT_LT(elapsed(true) * 5, elapsed(false));
}

TEST_F(VfsTest, FsProfilesDiffer) {
  for (const char* name : {"ext4", "ext3", "jfs", "xfs"}) {
    FsProfile p = MakeFsProfile(name);
    EXPECT_EQ(p.name, name);
  }
  EXPECT_TRUE(MakeFsProfile("ext3").fsync_flushes_all_dirty);
  EXPECT_FALSE(MakeFsProfile("ext4").fsync_flushes_all_dirty);
  EXPECT_GT(MakeFsProfile("xfs").alloc_chunk_blocks,
            MakeFsProfile("ext3").alloc_chunk_blocks);
}

}  // namespace
}  // namespace artc::vfs
