//! Names the one readiness backend `net` compiles on this target:
//! `poller="epoll"` on Linux and Android, `poller="kqueue"` on 64-bit
//! macOS, iOS, OpenBSD and DragonFly, whose `struct kevent` is the
//! 32-byte layout `net::sys` declares. Other targets get no `poller`
//! cfg: `net` does not compile there and `Server::run` returns
//! `Unsupported`. This list is the only place that decides where the
//! readiness loop runs.

fn main() {
    println!("cargo::rustc-check-cfg=cfg(poller, values(\"epoll\", \"kqueue\"))");
    println!("cargo::rerun-if-changed=build.rs");
    let os = std::env::var("CARGO_CFG_TARGET_OS").unwrap_or_default();
    let width = std::env::var("CARGO_CFG_TARGET_POINTER_WIDTH").unwrap_or_default();
    let poller = match (os.as_str(), width.as_str()) {
        ("linux" | "android", _) => "epoll",
        ("macos" | "ios" | "openbsd" | "dragonfly", "64") => "kqueue",
        _ => return,
    };
    println!("cargo::rustc-cfg=poller=\"{poller}\"");
}
