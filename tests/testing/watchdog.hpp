#pragma once
// Deadline for tests whose failure mode is a hang: the test body runs again,
// alone, in a child process of the test binary, which is killed when it
// overruns. Usage, at the top of a test body:
//
//   if (!sh::testing::in_watchdog_child()) {
//     sh::testing::run_in_child_within(120.0);
//     return;
//   }
#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

extern char** environ;

namespace sh::testing {

/// True in the child process run_in_child_within() starts.
inline bool in_watchdog_child() {
  return std::getenv("STRONGHOLD_TEST_WATCHDOG_CHILD") != nullptr;
}

/// Runs the current test again, alone, in a child process of this binary
/// and fails it if the child does not exit successfully within `seconds`.
/// For tests whose failure mode is a hang: the child is killed instead.
inline void run_in_child_within(double seconds) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string filter = std::string("--gtest_filter=") +
                             info->test_suite_name() + "." + info->name();
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(n, 0);
  exe[n] = '\0';
  const char* argv[] = {exe, filter.c_str(), nullptr};
  ::setenv("STRONGHOLD_TEST_WATCHDOG_CHILD", "1", 1);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, exe, nullptr, nullptr,
                               const_cast<char* const*>(argv), environ);
  ::unsetenv("STRONGHOLD_TEST_WATCHDOG_CHILD");
  ASSERT_EQ(rc, 0) << "posix_spawn failed";
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      FAIL() << "hung: the child did not finish within " << seconds << " s";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the child failed; its output is above";
}

}  // namespace sh::testing
