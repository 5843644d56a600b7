//! The live leaderboard through the query service: a limited poll of
//! `GET /v1/leaderboard` is the head of the full ranking, on a fleet
//! mixing finished, live and not-yet-metered campaigns with exact
//! efficiency ties.

use hpcpower::serve::http::{read_request, HttpLimits};
use hpcpower::serve::{route, Json, Request, Response, ServeConfig, ServeState};

fn request(method: &str, path: &str, body: &str) -> Request {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    read_request(
        &mut std::io::Cursor::new(raw.into_bytes()),
        &HttpLimits::default(),
    )
    .unwrap()
    .unwrap()
}

fn body_json(resp: &Response) -> Json {
    Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

fn get(state: &ServeState, path: &str) -> Json {
    let (_, resp) = route(state, &request("GET", path, ""));
    assert_eq!(resp.status, 200, "GET {path}");
    body_json(&resp)
}

fn post(state: &ServeState, body: &str) {
    let (_, resp) = route(state, &request("POST", "/v1/campaigns", body));
    assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key).unwrap().as_f64().unwrap()
}

#[test]
fn limited_leaderboard_is_the_head_of_the_full_ranking() {
    let shards = 4;
    let state = ServeState::new(ServeConfig {
        warm_on_start: false,
        fleet_shards: shards,
        ..ServeConfig::default()
    });
    // 64 campaigns: two batch families (distinct seeds) and 16 identical
    // submissions, which tie exactly once they meter the same nodes.
    post(
        &state,
        r#"{"name": "alpha", "population": 32, "mean_node_w": 300,
            "samples_per_node": 4, "seed": 1, "count": 24}"#,
    );
    post(
        &state,
        r#"{"name": "beta", "population": 96, "mean_node_w": 350, "cv": 0.06,
            "samples_per_node": 4, "seed": 2, "count": 24}"#,
    );
    for _ in 0..16 {
        post(
            &state,
            r#"{"name": "twin", "population": 48, "mean_node_w": 320,
                "samples_per_node": 4, "seed": 3}"#,
        );
    }
    // Shard 0 never runs, shard 1 runs a few rounds, the rest run long
    // enough for the small campaigns to stop while large ones stay live.
    for (shard, rounds) in (0..shards).zip([0, 2, 12, 12]) {
        for _ in 0..rounds {
            state.fleet.advance_shard(shard);
        }
    }

    let full = get(&state, "/v1/leaderboard?limit=0");
    let top = get(&state, "/v1/leaderboard?limit=10");
    let roster = get(&state, "/v1/campaigns");
    let live = get(&state, "/v1/campaigns?state=live");

    for board in [&full, &top] {
        assert_eq!(board.get("campaigns").unwrap().as_u64(), Some(64));
        assert_eq!(
            board.get("live").unwrap().as_u64(),
            live.get("returned").unwrap().as_u64()
        );
    }
    let live_count = live.get("returned").unwrap().as_u64().unwrap();
    assert!(live_count > 0 && live_count < 64, "{live_count} live");

    // The full ranking holds exactly the campaigns with a metered node,
    // ranked by descending efficiency with ties broken by ascending id.
    let full_rows = full.get("rows").unwrap().as_array().unwrap();
    let metered = roster
        .get("campaigns")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter(|c| num(c, "metered_nodes") > 0.0)
        .count();
    assert!(metered > 10 && metered < 64, "{metered} metered");
    assert_eq!(full_rows.len(), metered);
    let mut ties = 0;
    for (i, pair) in full_rows.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(num(a, "rank"), i as f64 + 1.0);
        assert!(num(a, "gflops_per_w") >= num(b, "gflops_per_w"));
        if num(a, "gflops_per_w") == num(b, "gflops_per_w") {
            assert!(num(a, "id") < num(b, "id"));
            ties += 1;
        }
    }
    assert!(ties > 0, "the fixture must produce exact ties");

    let top_rows = top.get("rows").unwrap().as_array().unwrap();
    assert_eq!(top_rows, &full_rows[..10]);
}
